package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// appendResult appends one run's full result (fingerprint and sample counts
// included) to path as one JSON line.
func appendResult(path string, r *result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(enc, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// repeatRuns runs the workload n times with the same seed, each in a fresh
// process so peak RSS and set-up start cold every time, appending every
// result to outFile.
func repeatRuns(w *workload, seed uint64, seconds float64, trace, n int, outFile string, out io.Writer) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 2, err
	}
	worst := 0
	for i := 0; i < n; i++ {
		cmd := exec.Command(self,
			"-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outFile)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output() // Output waits for the child to exit
		fmt.Fprintf(out, "# run %d of %d\n%s", i+1, n, stdout)
		if err != nil {
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				return 2, fmt.Errorf("run %d: %w", i+1, err)
			}
			worst = 1
		}
	}
	return worst, nil
}

// loadResults reads a JSON-lines result file and groups the untraced runs'
// values by workload and metric.
func loadResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Traced {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	return values, sc.Err()
}

// compareFiles prints one row per workload × end-to-end metric: both sides'
// medians and quartiles, the change as a share of the parent's median, the
// metric's bound, and a verdict. A pairing whose run-to-run spread exceeds
// its bound is unresolved, never unchanged. The exit code is 1 when any
// pairing regressed.
func compareFiles(parentPath, changePath string, out io.Writer) (int, error) {
	parent, err := loadResults(parentPath)
	if err != nil {
		return 2, err
	}
	change, err := loadResults(changePath)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(out, "# parent=%s change=%s; worse = change's median worse than parent's, as a share of the parent's median\n", parentPath, changePath)
	fmt.Fprintf(out, "%-11s %-22s %-38s %-38s %-30s %s\n", "workload", "metric", "parent median [q1..q3] n", "change median [q1..q3] n", "worse (bound)", "verdict")
	code := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := parent[w.name][d.name], change[w.name][d.name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			worse := ratio(bm-am, am)
			if d.better == "higher" {
				worse = -worse
			}
			spread := max(ratio(a3-a1, am), ratio(b3-b1, bm))
			verdict := "within bound"
			switch {
			case spread > d.bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% of the median exceeds the bound)", 100*spread)
			case worse > d.bound:
				verdict = "REGRESSED"
				code = 1
			case -worse > spread:
				verdict = "improved"
			}
			side := func(q1, m, q3 float64, n int) string {
				return fmt.Sprintf("%.6g [%.6g..%.6g] n=%d", m, q1, q3, n)
			}
			fmt.Fprintf(out, "%-11s %-22s %-38s %-38s %-30s %s\n", w.name, d.name,
				side(a1, am, a3, len(a)), side(b1, bm, b3, len(b)),
				fmt.Sprintf("%+.2f%% of %.6g %s (%.0f%%)", 100*worse, am, d.unit, 100*d.bound), verdict)
		}
	}
	return code, nil
}
