package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// declaredSet is one metric list of BENCHMARK.json: name → unit.
type declaredSet map[string]string

// declared holds the metric lists of BENCHMARK.json. Busy/self times
// and counts among the per-layer metrics are per pass: one LintDERs
// pass on rq1_lint, one catch-up round on fleet_backfill.
type declared struct{ e2e, layer declaredSet }

func loadDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type entry struct{ Name, Unit string }
	var f struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	d := &declared{declaredSet{}, declaredSet{}}
	for _, e := range f.EndToEnd {
		d.e2e[e.Name] = e.Unit
	}
	for _, e := range f.PerLayer {
		d.layer[e.Name] = e.Unit
	}
	if len(d.e2e) == 0 || len(d.layer) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end or no per_layer metrics", path)
	}
	return d, nil
}

// metrics attaches the declared unit to each value. A name outside the
// set is an error (a programming error, caught by any run), and so is a
// declared name without a value unless zeroFill, which reports it as 0.
func (d declaredSet) metrics(vals map[string]float64, zeroFill bool) (map[string]metric, error) {
	out := make(map[string]metric, len(d))
	var missing, extra []string
	for name, unit := range d {
		v, ok := vals[name]
		if !ok && !zeroFill {
			missing = append(missing, name)
		}
		out[name] = metric{v, unit}
	}
	for name := range vals {
		if _, ok := d[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	switch {
	case len(missing) > 0:
		return nil, fmt.Errorf("declared metrics not reported: %s", strings.Join(missing, ", "))
	case len(extra) > 0:
		return nil, fmt.Errorf("metrics not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return out, nil
}

// Limits a traced run is flagged against.
const (
	// reconcileTolerance is the largest share of a pass's wall time the
	// blocking-path spans may leave unattributed.
	reconcileTolerance = 0.10
	// overheadLimit is the largest slowdown of a traced pass against a
	// plain one before the per-layer numbers are considered distorted.
	overheadLimit = 0.15
)

// finishTrace records the trace-quality metrics, flags a run whose
// layers do not reconcile with its wall time or whose tracing cost too
// much, and writes the trace.
func finishTrace(res *result, tr *tracer, workload string, tracedCost, plainCost, gap float64) {
	overhead := tracedCost/plainCost - 1
	res.setLayer("trace.overhead_share", overhead)
	res.setLayer("trace.reconcile_gap_share", gap)
	if gap > reconcileTolerance {
		res.flag("blocking-path spans leave %.1f%% of pass wall time unattributed (tolerance %.0f%%)", 100*gap, 100*reconcileTolerance)
	}
	if overhead > overheadLimit {
		res.flag("tracing overhead %.1f%% above limit %.0f%%", 100*overhead, 100*overheadLimit)
	}
	path, err := tr.write(workload)
	if err != nil {
		res.flag("trace not written: %v", err)
	} else {
		fmt.Fprintf(stderr, "%s: trace (%d spans) in %s\n", workload, len(tr.spans), path)
	}
}
