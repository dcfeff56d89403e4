package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads (not a report of the all-workloads mode?)", path)
	}
	return &r, nil
}

// worsening returns by what share of a the value b is worse than a, in the
// metric's own direction: positive = b is worse.
func worsening(m metricDef, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports prints, per workload × end-to-end metric, both medians, how
// much worse b is than a, and the bound; it fails when any metric of b is
// worse than a by more than its bound, or the two ran different inputs.
func compareReports(pathA, pathB string, w io.Writer) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  seed %d  %s %s\nb: %s  seed %d  %s %s\n", pathA, a.Seed, a.Env.GoVersion, a.Env.GitRev, pathB, b.Seed, b.Env.GoVersion, b.Env.GitRev)
	fmt.Fprintf(w, "%-22s %-14s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "b worse", "bound")
	bad := 0
	for _, def := range workloadDefs {
		da, db := a.Workloads[def.Name], b.Workloads[def.Name]
		if da == nil || db == nil {
			fmt.Fprintf(w, "%-22s missing from a report\n", def.Name)
			bad++
			continue
		}
		if a.Seed == b.Seed && da.Digest != db.Digest {
			fmt.Fprintf(w, "%-22s script digests differ at equal seeds: %s vs %s\n", def.Name, da.Digest, db.Digest)
			bad++
		}
		for _, m := range endToEnd {
			va, vb := da.EndToEnd[m.Name].Median, db.EndToEnd[m.Name].Median
			rel := worsening(m, va, vb)
			mark := ""
			if rel > *m.Bound {
				mark = "  REGRESSION"
				bad++
			}
			fmt.Fprintf(w, "%-22s %-14s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n", def.Name, m.Name, va, vb, 100*rel, 100**m.Bound, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric pairs of b are outside their bound", bad)
	}
	return nil
}
