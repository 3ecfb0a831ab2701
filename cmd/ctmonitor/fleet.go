package main

// The fleet's logs: ctmonitor stands up one in-process CT log per
// -logs spec — each with its own fault profile — and crawls them all
// through internal/fleet, one supervised worker per log, with cross-log
// dedup, bounded-feed backpressure, per-log crash-safe checkpoints, and
// the quorum-gated /readyz. One sick log degrades the fleet, it does
// not kill it.
//
// Log windows deliberately OVERLAP: the corpus is split into per-log
// slices that each extend half a stride into their neighbours, and the
// crafted forgery is submitted to every log, so a run of several logs
// always exercises the dedup path with a known shape. A fleet of one
// gets the whole corpus.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
)

// SLO policy. Windows are short because a ctmonitor run is short — a
// production deploy would stretch these to SRE-book spans (5m/1h)
// without touching the engine.
const (
	sloTickEvery  = 500 * time.Millisecond
	sloFastWindow = 10 * time.Second
	sloSlowWindow = 60 * time.Second
	// sloErrObjective is the tolerated retryable share of CT log
	// attempts; warn at 2x budget burn, page at 10x on both windows.
	sloErrObjective = 0.05
	sloBurnWarn     = 2
	sloBurnPage     = 10
	// sloFreshTarget is the default checkpoint-age target when
	// -fleet-stall-after is unset; warn at half the budget, page at it.
	sloFreshTarget = 30 * time.Second
)

// fleetLog is one stood-up log with its fault profile.
type fleetLog struct {
	name     string
	profile  string
	size     int
	poisoned []int
	injector *faultinject.Transport
	srv      *serve.Server
	done     chan error
}

// parseFleetSpecs turns "alpha:hang,bravo:flaky,charlie" into
// (name, profile) pairs; a missing profile means clean.
func parseFleetSpecs(s string) ([][2]string, error) {
	var out [][2]string
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, profile := part, "clean"
		if i := strings.IndexByte(part, ':'); i >= 0 {
			name, profile = part[:i], part[i+1:]
		}
		if name == "" {
			return nil, fmt.Errorf("empty log name in -logs spec %q", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate log name %q in -logs", name)
		}
		seen[name] = true
		switch profile {
		case "clean", "flaky", "hang", "poison":
		default:
			return nil, fmt.Errorf("unknown fault profile %q for log %q (want clean, flaky, hang, or poison)", profile, name)
		}
		out = append(out, [2]string{name, profile})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no log specs in -logs %q", s)
	}
	return out, nil
}

// fleetWindow is log i's half-stride-overlapping slice of [0, total).
func fleetWindow(i, n, total int) (lo, hi int) {
	if n <= 1 || total <= n {
		return 0, total
	}
	stride := total / n
	lo = i*stride - stride/2
	if lo < 0 {
		lo = 0
	}
	hi = (i+1)*stride + stride/2
	if i == n-1 || hi > total {
		hi = total
	}
	return lo, hi
}

// poisonIndices picks the deterministic per-log poisoned entries for
// the "poison" profile: quartile positions within the log.
func poisonIndices(size int) []int {
	if size < 4 {
		return []int{0}
	}
	set := map[int]bool{size / 4: true, size / 2: true, 3 * size / 4: true}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// fleetTransport builds one log's fault injector (nil for clean).
func fleetTransport(profile string, seed int64, timeout time.Duration, poisoned []int) *faultinject.Transport {
	switch profile {
	case "flaky":
		return faultinject.New(faultinject.Config{
			Seed: seed, Rate: 0.25,
			Kinds:          []faultinject.Kind{faultinject.ServerError},
			MaxConsecutive: 2,
		}, nil)
	case "hang":
		// The hang outlasts the client timeout, so every hang costs the
		// crawl one full timeout before the retry path takes over.
		return faultinject.New(faultinject.Config{
			Seed: seed, Rate: 0.2,
			Kinds:          []faultinject.Kind{faultinject.Hang},
			HangFor:        2 * timeout,
			MaxConsecutive: 2,
		}, nil)
	case "poison":
		pe := map[int]bool{}
		for _, i := range poisoned {
			pe[i] = true
		}
		return faultinject.New(faultinject.Config{Seed: seed, PoisonEntries: pe}, nil)
	default:
		return nil
	}
}
