package experiments

import (
	"fmt"
	"sort"
)

// Experiments maps experiment names (as accepted by fastcc-bench -exp) to
// their runners. "fig2" and "fig4" take the suite from the dispatcher.
var runners = map[string]func(Config, string) error{
	"table1": func(c Config, _ string) error { return RunTable1(c) },
	"table2": func(c Config, _ string) error { return RunTable2(c) },
	"table3": func(c Config, _ string) error { return RunTable3(c) },
	"fig2":   RunFig2,
	"fig3":   func(c Config, _ string) error { return RunFig3(c) },
	"fig4":   RunFig4,
	"fig5":   func(c Config, _ string) error { return RunFig5(c) },
	"ablate": func(c Config, _ string) error { return RunAblations(c) },
	"model":  func(c Config, _ string) error { return RunModelAccuracy(c) },
	"phases": func(c Config, _ string) error { return RunPhases(c) },
}

// Names lists the available experiments in stable order.
func Names() []string {
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run dispatches one experiment by name; "all" runs everything in order.
func Run(cfg Config, name, suite string) error {
	if name == "all" {
		for _, n := range []string{"table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "ablate", "model", "phases"} {
			fmt.Fprintf(cfg.writer(), "\n===== %s =====\n\n", n)
			if err := Run(cfg, n, suite); err != nil {
				return err
			}
		}
		return nil
	}
	fn, ok := runners[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v and \"all\")", name, Names())
	}
	return fn(cfg, suite)
}
