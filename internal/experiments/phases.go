package experiments

import (
	"fmt"
)

// RunPhases breaks FaSTCC's runtime into the paper's four steps per
// contraction (Section 4.2: hash-table construction, tile contraction +
// accumulation + drain, list concatenation) plus the linearization pre/post
// passes. This directly supports the paper's Section 6.4 explanation that
// Vast and Uber are bottlenecked on building HL_i/HR_j rather than on the
// contraction itself.
func RunPhases(cfg Config) error {
	w := cfg.writer()
	fmt.Fprintf(w, "Phase breakdown of the FaSTCC pipeline (threads=%d)\n\n", cfg.Threads)
	t := newTable("contraction", "total(s)", "linearize%", "build%", "contract%", "concat+delin%", "build-bound?")

	for _, cs := range Catalog() {
		l, r, spec, err := cs.Load(cfg)
		if err != nil {
			return err
		}
		_, stats, _, err := runFastCC(cfg, l, r, spec)
		if err != nil {
			return err
		}
		total := stats.TotalTime.Seconds()
		if total <= 0 {
			continue
		}
		pct := func(s float64) float64 { return 100 * s / total }
		build := stats.BuildTime.Seconds()
		note := ""
		if build > stats.ContractTime.Seconds() {
			note = "build-bound"
		}
		t.addf("%s|%s|%.0f%%|%.0f%%|%.0f%%|%.0f%%|%s",
			cs.ID, secs(stats.TotalTime),
			pct(stats.LinearizeTime.Seconds()),
			pct(build),
			pct(stats.ContractTime.Seconds()),
			pct(stats.ConcatTime.Seconds()+stats.DelinearizeTime.Seconds()),
			note)
	}
	cfg.print(t)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Contractions whose build phase dominates are the ones where Sparta's")
	fmt.Fprintln(w, "cheap chained insertions win (paper Section 6.4: Vast, Uber).")
	return nil
}
