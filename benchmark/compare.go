package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint says where numbers were measured. Results from hosts
// with different fingerprints are not comparable, and -compare
// refuses them (Commit and Seed excepted: comparing commits is the
// point, and seeds vary by design).
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	OutFS      string `json:"out_fs"` // filesystem type of the scratch directory, as statfs reports it
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(c *config) fingerprint {
	fp := fingerprint{
		CPU: "unknown", NProc: c.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: c.clients,
		Go: runtime.Version(), Kernel: "unknown", OutFS: "unknown", Commit: "unknown", Seed: c.seed,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if os.MkdirAll(c.outDir, 0o755) == nil && syscall.Statfs(c.outDir, &st) == nil {
		fp.OutFS = fmt.Sprintf("0x%x", st.Type)
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	return fp
}

func (a fingerprint) sameHost(b fingerprint) bool {
	a.Commit, a.Seed = b.Commit, b.Seed
	return a == b
}

// summary is one metric's values over a set's runs.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 − q1) ÷ median
	Values []float64 `json:"values"`
}

func summarize(v []float64) summary {
	q1, q3 := quartiles(v)
	return summary{Median: median(v), Q1: q1, Q3: q3, Spread: spread(v), Values: v}
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seconds     float64     `json:"seconds"`
	// Sets[set][workload][metric]
	Sets  []map[string]map[string]summary `json:"sets"`
	Claim *string                         `json:"claim"` // always null: a ledger claims nothing
}

// verdict compares a metric's median on two sides against its bound.
// delta is how much worse b is than a, as a share of a's median
// (negative: better). A spread wider than the bound on either side
// means the runs cannot resolve a change of that size.
func verdict(d metricDef, a, b summary) (delta float64, word string) {
	if a.Median != 0 {
		delta = (b.Median - a.Median) / a.Median
	}
	if d.Better == "higher" {
		delta = -delta
	}
	switch {
	// Set-up happens three times a run, not thousands: its spread is
	// reported but never stops a verdict.
	case d.Name != "setup_s" && (a.Spread > d.Bound || b.Spread > d.Bound):
		word = "unresolved"
	case delta > d.Bound:
		word = "regressed"
	case delta < -d.Bound:
		word = "improved"
	default:
		word = "unchanged"
	}
	return delta, word
}

// printComparison prints one row per workload × end-to-end metric and
// returns how many rows got each verdict.
func printComparison(a, b map[string]map[string]summary) map[string]int {
	count := map[string]int{}
	fmt.Printf("%-16s %-14s %14s %14s %8s %7s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			sa, oka := a[w.name][d.Name]
			sb, okb := b[w.name][d.Name]
			if !oka || !okb {
				continue
			}
			delta, word := verdict(d, sa, sb)
			count[word]++
			fmt.Printf("%-16s %-14s %14s %14s %+7.1f%% %6.1f%%  %s\n",
				w.name, d.Name, formatValue(sa.Median), formatValue(sb.Median), delta*100, d.Bound*100, word)
		}
	}
	return count
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Sets) == 0 {
		return nil, fmt.Errorf("%s: no result sets", path)
	}
	return &rf, nil
}

// compareFiles is -compare: the first set of each file, side by side.
func compareFiles(pa, pb string) int {
	a, err := readResultFile(pa)
	if err != nil {
		fatal(err)
	}
	b, err := readResultFile(pb)
	if err != nil {
		fatal(err)
	}
	if !a.Fingerprint.sameHost(b.Fingerprint) || a.Seconds != b.Seconds {
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare results from different hosts or settings:\n  %+v (%gs)\n  %+v (%gs)\n",
			a.Fingerprint, a.Seconds, b.Fingerprint, b.Seconds)
		return 2
	}
	if printComparison(a.Sets[0], b.Sets[0])["regressed"] > 0 {
		return 1
	}
	return 0
}

// runAll is the all-workload mode: every workload in a process of its
// own (so peak RSS, CPU and allocation counts do not leak from one
// workload into the next), `runs` seeds per workload per set, `repeat`
// sets. With more than one set the sets must agree within each
// metric's own bound: the benchmark's self-agreement check.
func runAll(seed int64, seconds float64, trace bool, outDir string, repeat, runs int, jsonOut string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	c := newConfig(seed, seconds, outDir)
	rf := resultFile{Fingerprint: hostFingerprint(c), Seconds: seconds}
	fmt.Printf("host: %+v\n", rf.Fingerprint)
	failed := false
	one := func(w string, seed int64, trace int) *result {
		cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "--out", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
			fatal(fmt.Errorf("%s seed %d: %v (no result line: %v)", w, seed, err, jerr))
		}
		if err != nil || !res.Correct {
			failed = true
		}
		return &res
	}
	for set := 0; set < repeat; set++ {
		sums := map[string]map[string]summary{}
		for _, w := range workloads {
			values := map[string][]float64{}
			for r := 0; r < runs; r++ {
				res := one(w.name, seed+int64(set*runs+r), 0)
				for n, v := range res.Metrics {
					values[n] = append(values[n], v.Value)
				}
			}
			sums[w.name] = map[string]summary{}
			fmt.Printf("set %d  %s  (%d runs)\n", set, w.name, runs)
			for _, d := range endToEnd {
				s := summarize(values[d.Name])
				sums[w.name][d.Name] = s
				fmt.Printf("  %-16s %14s %-6s spread %5.1f%% of bound %4.1f%%\n",
					d.Name, formatValue(s.Median), d.Unit, s.Spread*100, d.Bound*100)
			}
			if trace && set == 0 {
				res := one(w.name, seed, 1)
				printResult(w.name, c, res)
			}
		}
		rf.Sets = append(rf.Sets, sums)
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(rf, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(jsonOut), 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	for set := 1; set < repeat; set++ {
		fmt.Printf("\nset 0 against set %d\n", set)
		// The sets ran the same code: a change beyond the bound in either
		// direction is a disagreement.
		count := printComparison(rf.Sets[0], rf.Sets[set])
		if count["regressed"]+count["improved"]+count["unresolved"] > 0 {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
