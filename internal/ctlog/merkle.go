// Package ctlog is an RFC 6962-style Certificate Transparency substrate:
// a Merkle hash tree with inclusion and consistency proofs, an
// append-only log that issues SCTs, and the precertificate handling the
// paper's dataset pipeline relies on (§4.1 filters precertificates by
// their CT poison extension before analysis).
package ctlog

import (
	"crypto/sha256"
	"errors"
	"math/bits"
)

// Hash is a Merkle tree node hash.
type Hash = [sha256.Size]byte

// Domain-separation prefixes, RFC 6962 §2.1.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// LeafHash computes the RFC 6962 leaf hash of data.
func LeafHash(data []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(data)
	var out Hash
	h.Sum(out[:0])
	return out
}

// nodeHash hashes one interior node from a stack buffer, so proof
// generation and verification allocate nothing per node.
func nodeHash(left, right Hash) Hash {
	var buf [1 + 2*sha256.Size]byte
	buf[0] = nodePrefix
	copy(buf[1:], left[:])
	copy(buf[1+sha256.Size:], right[:])
	return sha256.Sum256(buf[:])
}

// Tree is an append-only Merkle tree that stores every complete
// subtree hash: levels[k][j] is the MTH of leaves [j·2^k, (j+1)·2^k).
// The levels hold about 2n hashes in total, and any range the RFC 6962
// recursion asks for splits into O(log n) stored subtrees, so Root
// costs O(log n) hashes and each proof O(log² n) at worst, whatever
// the tree size (RFC 9162 §2.1).
type Tree struct {
	levels [][]Hash
}

// Append adds a leaf hash and returns its index. Each completed
// sibling pair is merged into the level above at once, amortised O(1)
// hashes per leaf.
func (t *Tree) Append(leaf Hash) int {
	if len(t.levels) == 0 {
		t.levels = [][]Hash{nil}
	}
	t.levels[0] = append(t.levels[0], leaf)
	for k := 0; len(t.levels[k])%2 == 0; k++ {
		if k+1 == len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		row := t.levels[k]
		t.levels[k+1] = append(t.levels[k+1], nodeHash(row[len(row)-2], row[len(row)-1]))
	}
	return t.Size() - 1
}

// Size returns the number of leaves.
func (t *Tree) Size() int {
	if len(t.levels) == 0 {
		return 0
	}
	return len(t.levels[0])
}

// leafIndex returns the index of the first of the first n leaves equal
// to leaf, or -1.
func (t *Tree) leafIndex(leaf Hash, n int) int {
	for i, h := range t.levels[0][:n] {
		if h == leaf {
			return i
		}
	}
	return -1
}

// Root computes the Merkle tree hash of the first n leaves (RFC 6962
// §2.1). Root of an empty tree is SHA-256 of the empty string.
func (t *Tree) Root(n int) (Hash, error) {
	if n < 0 || n > t.Size() {
		return Hash{}, errors.New("ctlog: size out of range")
	}
	if n == 0 {
		return sha256.Sum256(nil), nil
	}
	return t.hash(0, n), nil
}

// hash returns the MTH of leaves [lo, hi), 0 < hi-lo and hi <= Size.
// An aligned power-of-two range is a stored subtree; any other range
// splits as RFC 6962 does, and its left part is always aligned.
func (t *Tree) hash(lo, hi int) Hash {
	n := hi - lo
	if n&(n-1) == 0 && lo&(n-1) == 0 {
		k := bits.TrailingZeros(uint(n))
		return t.levels[k][lo>>k]
	}
	k := largestPowerOfTwoBelow(n)
	return nodeHash(t.hash(lo, lo+k), t.hash(lo+k, hi))
}

func largestPowerOfTwoBelow(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

// InclusionProof returns the audit path for leaf index i in a tree of
// size n (RFC 6962 §2.1.1).
func (t *Tree) InclusionProof(i, n int) ([]Hash, error) {
	if n < 1 || n > t.Size() || i < 0 || i >= n {
		return nil, errors.New("ctlog: index/size out of range")
	}
	return t.path(i, 0, n, make([]Hash, 0, bits.Len(uint(n)))), nil
}

// path appends the audit path for leaf i within [lo, hi) to proof,
// deepest sibling first.
func (t *Tree) path(i, lo, hi int, proof []Hash) []Hash {
	if hi-lo <= 1 {
		return proof
	}
	k := largestPowerOfTwoBelow(hi - lo)
	if i < lo+k {
		return append(t.path(i, lo, lo+k, proof), t.hash(lo+k, hi))
	}
	return append(t.path(i, lo+k, hi, proof), t.hash(lo, lo+k))
}

// VerifyInclusion checks an audit path against a root, following the
// bottom-up algorithm of RFC 9162 §2.1.3.2.
func VerifyInclusion(leaf Hash, i, n int, proof []Hash, root Hash) bool {
	if i < 0 || i >= n {
		return false
	}
	fn, sn := i, n-1
	r := leaf
	for _, p := range proof {
		if sn == 0 {
			return false
		}
		if fn%2 == 1 || fn == sn {
			r = nodeHash(p, r)
			if fn%2 == 0 {
				for fn != 0 && fn%2 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			r = nodeHash(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && r == root
}

// ConsistencyProof returns the proof that the tree of size m is a
// prefix of the tree of size n (RFC 6962 §2.1.2).
func (t *Tree) ConsistencyProof(m, n int) ([]Hash, error) {
	if m < 1 || m > n || n > t.Size() {
		return nil, errors.New("ctlog: sizes out of range")
	}
	return t.consistency(m, 0, n, true, make([]Hash, 0, bits.Len(uint(n))+1)), nil
}

// consistency appends RFC 6962 SUBPROOF(m, D[lo:hi], complete) to
// proof; m counts leaves from lo.
func (t *Tree) consistency(m, lo, hi int, complete bool, proof []Hash) []Hash {
	if m == hi-lo {
		if complete {
			return proof
		}
		return append(proof, t.hash(lo, hi))
	}
	k := largestPowerOfTwoBelow(hi - lo)
	if m <= k {
		return append(t.consistency(m, lo, lo+k, complete, proof), t.hash(lo+k, hi))
	}
	return append(t.consistency(m-k, lo+k, hi, false, proof), t.hash(lo, lo+k))
}

// VerifyConsistency checks a consistency proof between two roots,
// following RFC 9162 §2.1.4.2.
func VerifyConsistency(m, n int, oldRoot, newRoot Hash, proof []Hash) bool {
	if m < 1 || m > n {
		return false
	}
	if m == n {
		return oldRoot == newRoot && len(proof) == 0
	}
	path := proof
	// If m is an exact power of two, the old root itself starts the path.
	if m&(m-1) == 0 {
		path = append([]Hash{oldRoot}, proof...)
	}
	if len(path) == 0 {
		return false
	}
	fn, sn := m-1, n-1
	for fn%2 == 1 {
		fn >>= 1
		sn >>= 1
	}
	fr, sr := path[0], path[0]
	for _, c := range path[1:] {
		if sn == 0 {
			return false
		}
		if fn%2 == 1 || fn == sn {
			fr = nodeHash(c, fr)
			sr = nodeHash(c, sr)
			if fn%2 == 0 {
				for fn != 0 && fn%2 == 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			sr = nodeHash(sr, c)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && fr == oldRoot && sr == newRoot
}
