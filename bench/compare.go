package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (the driver's definition of
// spread); with fewer than two values there is no spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / med
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// endToEndValues collects, per workload and end-to-end metric, the values
// of the untraced runs of a result file.
func endToEndValues(f *resultFile) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.EndToEnd {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// compareFiles prints, for every pairing of workload and end-to-end metric
// the two files share, how far b's median is from a's against the metric's
// bound. A pairing whose run-to-run spread exceeds the bound is unresolved:
// neither a regression nor its absence can be read from it.
func compareFiles(w io.Writer, pathA, pathB string) error {
	fa, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	a, b := endToEndValues(fa), endToEndValues(fb)
	fmt.Fprintf(w, "a: %s  commit %s\nb: %s  commit %s\n", pathA, fa.Envelope.GitCommit, pathB, fb.Envelope.GitCommit)
	fmt.Fprintf(w, "%-16s %-20s %12s %12s %9s %7s %8s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "spread", "verdict")
	regressed := false
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a[wl.name][m.name], b[wl.name][m.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if m.better == "higher" {
					worse = -worse
				}
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > m.bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > m.bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(w, "%-16s %-20s %12.4f %12.4f %8.1f%% %6.0f%% %7.1f%%  %s\n",
				wl.name, m.name, ma, mb, 100*worse, 100*m.bound, 100*sp, verdict)
		}
	}
	if regressed {
		return fmt.Errorf("b is worse than a beyond a bound")
	}
	return nil
}
