package main

import (
	"bufio"
	"errors"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"fastcc"
)

// quantile returns the p-quantile of xs by linear interpolation between the
// closest ranks; xs is not modified. It returns 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values (0 for an empty sample).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// opQuantile is the quantile of a case's op times that op_p10_s reports.
// The machines this runs on are shared: other tenants' bursts slow memory
// access by up to half for seconds at a time, while a register-only loop
// stays within 5%. The interference only adds time, so a low quantile
// tracks the program's own speed, and over ten seeded runs its spread was
// about half that of the median (README.md, Noise).
const opQuantile = 0.1

// geomeanOfQuantiles is the geometric mean, over the non-empty samples, of
// each one's p-quantile.
func geomeanOfQuantiles(samples [][]float64, p float64) float64 {
	var qs []float64
	for _, xs := range samples {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, p))
		}
	}
	return geomean(qs)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, or 0 when b is 0 (a rate of nothing happening).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix64 is the splitmix64 finalizer: a cheap bijective 64-bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// digest is an order-independent 64-bit fingerprint of a tensor's nonzeros:
// the wrapping sum over elements of a mix of (coordinates, Float64bits(v
// scaled by 2^shift)). Contractions are deterministic per tile, so a
// repeated run must reproduce it exactly; scaling one operand by 2^shift
// scales every output value exactly, so the digest of such a run is
// predictable from the base output without recomputing it.
func digest(t *fastcc.Tensor, shift int) uint64 {
	var d uint64
	for i, v := range t.Vals {
		h := uint64(len(t.Dims))
		for m := range t.Dims {
			h = mix64(h ^ t.Coords[m][i])
		}
		d += mix64(h ^ math.Float64bits(math.Ldexp(v, shift)))
	}
	return d
}

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the cumulative number of bytes the process has allocated on
// the heap.
func allocBytes() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// resetPeakRSS collects garbage, returns freed memory to the OS and resets
// the kernel's resident-set high-water mark, so peakRSS afterwards covers
// only what follows (setup and the output oracle stay out of the figure).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the process's resident-set high-water mark (VmHWM).
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// environment is the block every result records; -compare refuses to
// compare two results whose environments differ in anything but Commit and
// Dirty.
type environment struct {
	CPU           string             `json:"cpu"`
	NProc         int                `json:"nproc"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	GoVersion     string             `json:"go_version"`
	GOGC          string             `json:"gogc"`
	Commit        string             `json:"commit"`
	Dirty         bool               `json:"dirty"`
	Platform      string             `json:"platform"`
	ServePlatform string             `json:"serve_platform"`
	Threads       int                `json:"threads"`
	Seed          uint64             `json:"seed"`
	Seconds       float64            `json:"seconds"`
	Setups        int                `json:"setups"`
	Scales        map[string]float64 `json:"scales"`
}

func platformString(p fastcc.Platform) string {
	return p.Name + " cores=" + strconv.Itoa(p.Cores) + " l3=" + strconv.FormatInt(p.L3Bytes, 10)
}

func currentEnvironment(cfg config) environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	commit, dirty := gitCommit()
	return environment{
		CPU:           cpuModel(),
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		GOGC:          gogc,
		Commit:        commit,
		Dirty:         dirty,
		Platform:      platformString(libPlatform),
		ServePlatform: platformString(fastcc.AutoPlatform()),
		Threads:       threads,
		Seed:          cfg.seed,
		Seconds:       cfg.seconds,
		Setups:        cfg.setups,
		Scales:        cfg.scales.byWorkload(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reports HEAD and whether the work tree has uncommitted changes;
// outside a git checkout the commit reads "unknown".
func gitCommit() (string, bool) {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(head)), err != nil || len(status) > 0
}
