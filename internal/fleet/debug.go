package fleet

// The /debug/fleet endpoint: one page that answers "what is the fleet
// doing right now" without grepping logs — per-log health, breaker
// state, checkpoint progress and age, the committed (durable) position
// beside the crawl's, dedup counters, active SLO burns, and the tail
// of the flight recorder. JSON by default (for tooling and the soak
// harness); a minimal HTML table when the client asks for it (Accept:
// text/html or ?format=html), because the first consumer of a debug
// page is a human with a browser.

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/ctlog"
	"repro/internal/obs"
)

// debugLog is one log's row in the debug report.
type debugLog struct {
	Name          string     `json:"name"`
	State         string     `json:"state"`
	Breaker       string     `json:"breaker"`
	Checkpoint    int64      `json:"checkpoint"`
	Committed     int        `json:"committed"`
	CheckpointAge float64    `json:"checkpoint_age_seconds"`
	Restarts      int        `json:"restarts"`
	Done          bool       `json:"done"`
	Stats         debugStats `json:"stats"`
	Err           string     `json:"err,omitempty"`
}

// debugStats is the accounting subset the soak harness reconciles.
type debugStats struct {
	Fetched       int `json:"fetched"`
	Deduped       int `json:"deduped"`
	Quarantined   int `json:"quarantined"`
	Skipped       int `json:"skipped"`
	Bisections    int `json:"bisections"`
	Retries       int `json:"retries"`
	Audited       int `json:"audited"`
	ProofFailures int `json:"proof_failures"`
}

// debugReport is the full /debug/fleet JSON document.
type debugReport struct {
	Now        string            `json:"now"`
	FleetState string            `json:"fleet_state"`
	Quorum     int               `json:"quorum"`
	Unique     int64             `json:"unique_entries"`
	Deduped    int64             `json:"dup_entries"`
	Ready      string            `json:"ready"`
	Logs       []debugLog        `json:"logs"`
	SLOs       []obs.SLOStatus   `json:"slos,omitempty"`
	Flight     []obs.FlightEvent `json:"flight,omitempty"`
}

// debugFlightTail bounds the flight events a debug page shows.
const debugFlightTail = 50

func (c *Coordinator) debugReport(slo *obs.SLOEngine, flight *obs.Flight) debugReport {
	rep := debugReport{
		Now:        time.Now().UTC().Format(time.RFC3339),
		FleetState: c.State().String(),
		Quorum:     c.cfg.quorum(),
		Unique:     c.unique.Load(),
		Deduped:    c.dups.Load(),
		Ready:      "ok",
	}
	if err := c.Ready(); err != nil {
		rep.Ready = err.Error()
	}
	for _, w := range c.workers {
		stats := w.snapshotStats()
		row := debugLog{
			Name:          w.spec.Name,
			State:         State(w.state.Load()).String(),
			Breaker:       ctlog.BreakerStateName(w.spec.Client.Breaker.State()),
			Checkpoint:    w.checkpoint.Load(),
			Committed:     w.mon.Committed(),
			CheckpointAge: w.checkpointAge().Seconds(),
			Restarts:      int(w.restarts.Load()),
			Done:          w.done.Load(),
			Stats: debugStats{
				Fetched:       stats.Fetched,
				Deduped:       stats.Deduped,
				Quarantined:   stats.Quarantined,
				Skipped:       stats.SkippedEntries,
				Bisections:    stats.Bisections,
				Retries:       stats.Retries,
				Audited:       stats.Audited,
				ProofFailures: stats.ProofFailures,
			},
		}
		w.mu.Lock()
		if w.err != nil {
			row.Err = w.err.Error()
		}
		w.mu.Unlock()
		rep.Logs = append(rep.Logs, row)
	}
	sort.Slice(rep.Logs, func(i, j int) bool { return rep.Logs[i].Name < rep.Logs[j].Name })
	rep.SLOs = slo.States()
	rep.Flight = flight.Snapshot(debugFlightTail)
	return rep
}

// DebugHandler serves the fleet debug report. slo and flight may be
// nil; their sections are simply omitted. JSON is the default; request
// HTML with ?format=html or an Accept header that prefers text/html.
func (c *Coordinator) DebugHandler(slo *obs.SLOEngine, flight *obs.Flight) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := c.debugReport(slo, flight)
		if wantsHTML(r) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			writeDebugHTML(w, rep)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	})
}

func wantsHTML(r *http.Request) bool {
	if r.URL.Query().Get("format") == "html" {
		return true
	}
	accept := r.Header.Get("Accept")
	htmlAt := strings.Index(accept, "text/html")
	if htmlAt < 0 {
		return false
	}
	jsonAt := strings.Index(accept, "application/json")
	return jsonAt < 0 || htmlAt < jsonAt
}

func writeDebugHTML(w http.ResponseWriter, rep debugReport) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	esc := html.EscapeString
	p("<!DOCTYPE html><html><head><title>fleet debug</title>")
	p("<style>body{font-family:monospace}table{border-collapse:collapse}td,th{border:1px solid #999;padding:2px 8px;text-align:left}</style>")
	p("</head><body>\n")
	p("<h1>fleet: %s</h1>\n", esc(rep.FleetState))
	p("<p>now=%s quorum=%d unique=%d deduped=%d ready=%s</p>\n",
		esc(rep.Now), rep.Quorum, rep.Unique, rep.Deduped, esc(rep.Ready))
	p("<h2>logs</h2>\n<table><tr><th>log</th><th>state</th><th>breaker</th><th>checkpoint</th><th>committed</th><th>age (s)</th><th>restarts</th><th>fetched</th><th>deduped</th><th>quarantined</th><th>skipped</th><th>err</th></tr>\n")
	for _, l := range rep.Logs {
		p("<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%.1f</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td></tr>\n",
			esc(l.Name), esc(l.State), esc(l.Breaker), l.Checkpoint, l.Committed, l.CheckpointAge,
			l.Restarts, l.Stats.Fetched, l.Stats.Deduped, l.Stats.Quarantined,
			l.Stats.Skipped, esc(l.Err))
	}
	p("</table>\n")
	if len(rep.SLOs) > 0 {
		p("<h2>slos</h2>\n<table><tr><th>slo</th><th>state</th><th>burn fast</th><th>burn slow</th></tr>\n")
		for _, s := range rep.SLOs {
			p("<tr><td>%s</td><td>%s</td><td>%.2f</td><td>%.2f</td></tr>\n",
				esc(s.Name), esc(s.StateStr), s.BurnFast, s.BurnSlow)
		}
		p("</table>\n")
	}
	if len(rep.Flight) > 0 {
		p("<h2>flight (last %d)</h2>\n<table><tr><th>seq</th><th>ts</th><th>subsystem</th><th>kind</th><th>detail</th><th>v1</th><th>v2</th></tr>\n", len(rep.Flight))
		for _, e := range rep.Flight {
			p("<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td></tr>\n",
				e.Seq, esc(e.Time.UTC().Format(time.RFC3339Nano)), esc(e.Subsystem),
				esc(e.Kind), esc(e.Detail), e.V1, e.V2)
		}
		p("</table>\n")
	}
	p("</body></html>\n")
}
