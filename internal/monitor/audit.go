package monitor

// Merkle auditing for the crawl. With SyncOptions.Audit set, the
// monitor stops trusting get-entries: it mirrors the log's Merkle
// tree in a compact range and proves every batch against the signed
// tree head before anything reaches a sink or the index.
//
// The verification is amortized. Each fetched batch extends a
// *tentative* copy of the mirror, and one consistency proof
// (batch-end size → STH size) authenticates the entire prefix — every
// leaf fetched so far — against the STH root in O(log n) hashes. Only
// when that check fails does the crawl fall back to per-entry
// inclusion proofs, which either pinpoint the tampered entries or
// heal a transiently corrupted proof. Every STH advance is itself
// checked with a consistency proof against the last verified head
// (persisted in the STHStore), so a log that forks its tree — serving
// this monitor a different history than the rest of the world, the
// split-view attack CT's gossip literature warns about — is detected
// at the first get-sth, even across a process restart.
//
// A proof failure is an incident, not a retry: it is counted
// (SyncStats.ProofFailures, monitor_proof_failures_total{kind}),
// journaled (monitor.proof_failure), flight-dumped, and surfaces as
// an error wrapping ErrProofFailure, which supervisors treat as
// terminal — a log caught lying is distrusted, not restarted.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ctlog"
)

// ErrProofFailure marks a crawl abort caused by Merkle proof
// verification failing (or an entry the tree cannot be verified
// past). Callers use errors.Is to distinguish "the log is lying" from
// "the log is down": the former must not be retried into acceptance.
var ErrProofFailure = errors.New("monitor: merkle proof verification failed")

// Proof-failure kinds, the label values of
// monitor_proof_failures_total{kind}.
const (
	// ProofFailInclusion: an entry's inclusion proof did not verify
	// against the STH (or the log claims not to have the leaf).
	ProofFailInclusion = "inclusion"
	// ProofFailConsistency: a consistency proof did not connect two
	// tree heads — the split-view/equivocation signal.
	ProofFailConsistency = "consistency"
	// ProofFailHole: an entry was persistently unfetchable, so the
	// tree cannot be verified past it; without auditing it would have
	// been skipped.
	ProofFailHole = "hole"
)

// auditor is a monitor's audit state. It lives on the Monitor (not
// the crawl) so in-process supervisor restarts keep the verified
// mirror; across processes the STHStore restores it.
type auditor struct {
	// tree mirrors the verified prefix of the log: exactly the leaves
	// the crawl has claimed, appended in lockstep with the checkpoint.
	tree *ctlog.CompactTree
	// crawlSize/crawlRoot are the STH the current crawl verifies
	// against; set by auditSTHAdvance at crawl start.
	crawlSize int
	crawlRoot ctlog.Hash
}

// ensureAudit initializes the audit state once per monitor, restoring
// the persisted anchor when one exists.
func (m *Monitor) ensureAudit(ctx context.Context, opts *SyncOptions) error {
	if m.audit != nil {
		return nil
	}
	a := &auditor{}
	if opts.STHStore != nil {
		v, ok, err := opts.STHStore.Load()
		if err != nil {
			return fmt.Errorf("monitor: loading STH store: %w", err)
		}
		if ok {
			t, err := ctlog.NewCompactTree(v.Size, v.Hashes)
			if err == nil && t.Root() == v.Root {
				a.tree = t
				opts.Journal.Emit(ctx, "monitor.audit.anchor", map[string]any{
					"log": opts.Name, "size": v.Size,
				})
			}
		}
	}
	if a.tree == nil {
		a.tree = &ctlog.CompactTree{}
	}
	m.audit = a
	return nil
}

// proofFailure books one proof-failure incident — accounting, journal
// event, flight dump — and returns the terminal error.
func (m *Monitor) proofFailure(ctx context.Context, kind string, index int, detail string, stats *SyncStats, sm *syncMetrics, opts *SyncOptions) error {
	stats.ProofFailures++
	sm.proofFailed(kind)
	opts.Journal.Emit(ctx, "monitor.proof_failure", map[string]any{
		"log": opts.Name, "kind": kind, "index": index, "detail": detail,
	})
	sm.ring.Record("proof-failure", opts.Name, int64(index), 0)
	// The moments before a proof failure are exactly what forensics
	// needs; a dump failure must not mask the incident itself.
	_, _ = opts.Flight.Trigger("proof-failure")
	return fmt.Errorf("monitor: %s proof failure (%s, index %d): %w", kind, detail, index, ErrProofFailure)
}

// auditSTHAdvance checks a freshly fetched STH against the verified
// tree head before the crawl trusts it. Equal sizes must carry equal
// roots (anything else is a split view); a larger head must prove
// consistency with ours; a smaller head is tolerated only if it *is*
// a consistent prefix of what we already verified (a stale cache),
// never a rollback.
func (m *Monitor) auditSTHAdvance(ctx context.Context, client *ctlog.Client, size int, root ctlog.Hash, stats *SyncStats, sm *syncMetrics, opts *SyncOptions) error {
	a := m.audit
	a.crawlSize, a.crawlRoot = size, root
	s0 := a.tree.Size()
	if s0 == 0 {
		return nil // nothing verified yet; the first batches anchor us
	}
	r0 := a.tree.Root()
	switch {
	case size == s0:
		if root == r0 {
			return nil
		}
		return m.proofFailure(ctx, ProofFailConsistency, size, "split view: same tree size, different root", stats, sm, opts)
	case size > s0:
		for attempt := 0; attempt <= opts.proofRetries(); attempt++ {
			proof, err := client.GetConsistency(ctx, s0, size)
			if err != nil {
				if ctx.Err() != nil || ctlog.IsRetryable(err) {
					return fmt.Errorf("monitor: get-sth-consistency [%d,%d]: %w", s0, size, err)
				}
				continue // deterministic per-request damage can heal on refetch
			}
			if ctlog.VerifyConsistency(s0, size, r0, root, proof) {
				return nil
			}
		}
		return m.proofFailure(ctx, ProofFailConsistency, size, "STH does not extend the verified tree head", stats, sm, opts)
	default: // size < s0
		if size == 0 {
			return m.proofFailure(ctx, ProofFailConsistency, size, "STH rolled back to an empty tree", stats, sm, opts)
		}
		for attempt := 0; attempt <= opts.proofRetries(); attempt++ {
			proof, err := client.GetConsistency(ctx, size, s0)
			if err != nil {
				if ctx.Err() != nil || ctlog.IsRetryable(err) {
					return fmt.Errorf("monitor: get-sth-consistency [%d,%d]: %w", size, s0, err)
				}
				continue
			}
			if ctlog.VerifyConsistency(size, s0, root, r0, proof) {
				return nil // stale but consistent head; the crawl is a no-op
			}
		}
		return m.proofFailure(ctx, ProofFailConsistency, size, "STH is behind the verified head and not a prefix of it", stats, sm, opts)
	}
}

// auditBatch verifies one fetched batch before ingest may claim it.
// New entries extend a tentative copy of the mirror and one
// consistency proof authenticates the extended prefix against the
// STH; refetched entries already inside the mirror (a crash window
// artifact) are re-proven individually, since their bytes may differ
// from what was verified. The real mirror is NOT advanced here —
// ingest appends leaves in lockstep with the checkpoint, so every
// abort point keeps tree and checkpoint equal.
func (m *Monitor) auditBatch(ctx context.Context, client *ctlog.Client, entries []ctlog.Entry, stats *SyncStats, sm *syncMetrics, opts *SyncOptions) error {
	a := m.audit
	tent := a.tree.Clone()
	for _, e := range entries {
		if e.Index < m.nextIndex {
			continue // ingest drops it too
		}
		if e.Index < tent.Size() {
			if err := m.auditEntry(ctx, client, e.Index, ctlog.LeafHash(e.DER), stats, sm, opts); err != nil {
				return err
			}
			continue
		}
		if e.Index != tent.Size() {
			return fmt.Errorf("monitor: entry %d leaves a gap in the audit mirror at %d", e.Index, tent.Size())
		}
		tent.Append(ctlog.LeafHash(e.DER))
	}
	s, n := tent.Size(), a.crawlSize
	if s == a.tree.Size() {
		return nil // nothing new to prove
	}
	if s > n {
		return m.proofFailure(ctx, ProofFailConsistency, s-1, fmt.Sprintf("log served entries beyond its STH of size %d", n), stats, sm, opts)
	}
	root := tent.Root()
	if s == n {
		if root == a.crawlRoot {
			return nil
		}
	} else {
		for attempt := 0; attempt <= opts.proofRetries(); attempt++ {
			proof, err := client.GetConsistency(ctx, s, n)
			if err != nil {
				if ctx.Err() != nil || ctlog.IsRetryable(err) {
					return fmt.Errorf("monitor: get-sth-consistency [%d,%d]: %w", s, n, err)
				}
				continue
			}
			if ctlog.VerifyConsistency(s, n, root, a.crawlRoot, proof) {
				return nil
			}
		}
	}
	// The batch root did not connect to the STH. Per-entry inclusion
	// proofs now either pinpoint the tampered entries or demonstrate
	// the batch was fine all along (the proofs, not the entries, were
	// damaged in transit).
	for _, e := range entries {
		if e.Index < m.nextIndex || e.Index < a.tree.Size() {
			continue
		}
		if err := m.auditEntry(ctx, client, e.Index, ctlog.LeafHash(e.DER), stats, sm, opts); err != nil {
			return err
		}
	}
	return nil
}

// auditEntry proves one leaf's inclusion at one index under the
// crawl's STH, retrying the proof fetch a few times (per-request
// tampering heals; a lying log does not).
func (m *Monitor) auditEntry(ctx context.Context, client *ctlog.Client, index int, leaf ctlog.Hash, stats *SyncStats, sm *syncMetrics, opts *SyncOptions) error {
	a := m.audit
	for attempt := 0; attempt <= opts.proofRetries(); attempt++ {
		idx, proof, err := client.GetProofByHash(ctx, leaf, a.crawlSize)
		if err != nil {
			if ctx.Err() != nil || ctlog.IsRetryable(err) {
				return fmt.Errorf("monitor: get-proof-by-hash(%d): %w", index, err)
			}
			continue // 404 or malformed proof: retry, then judge
		}
		if idx == index && ctlog.VerifyInclusion(leaf, idx, a.crawlSize, proof, a.crawlRoot) {
			return nil
		}
	}
	return m.proofFailure(ctx, ProofFailInclusion, index, "inclusion proof did not verify against the STH", stats, sm, opts)
}
