package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseFleetSpecs(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    [][2]string
		wantErr string
	}{
		{spec: "ctlog:clean", want: [][2]string{{"ctlog", "clean"}}},
		{spec: "alpha", want: [][2]string{{"alpha", "clean"}}},
		{
			spec: " alpha:hang, bravo:flaky ,charlie:poison,delta,",
			want: [][2]string{{"alpha", "hang"}, {"bravo", "flaky"}, {"charlie", "poison"}, {"delta", "clean"}},
		},
		{spec: "", wantErr: "no log specs"},
		{spec: " , ", wantErr: "no log specs"},
		{spec: ":clean", wantErr: "empty log name"},
		{spec: "alpha,bravo,alpha:flaky", wantErr: `duplicate log name "alpha"`},
		{spec: "alpha:sick", wantErr: `unknown fault profile "sick"`},
	} {
		got, err := parseFleetSpecs(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseFleetSpecs(%q) error %v, want one containing %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseFleetSpecs(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}

// TestFleetWindow: a fleet of one gets the whole corpus; otherwise each
// log's window reaches half a stride into its neighbours' slices, and
// the windows together cover exactly [0, total).
func TestFleetWindow(t *testing.T) {
	for _, total := range []int{0, 3, 200, 1000, 1001} {
		if lo, hi := fleetWindow(0, 1, total); lo != 0 || hi != total {
			t.Errorf("fleetWindow(0, 1, %d) = [%d,%d), want the whole corpus", total, lo, hi)
		}
	}
	for _, tc := range []struct{ n, total int }{{2, 200}, {3, 1000}, {4, 1000}, {4, 1001}, {4, 4}, {5, 3}} {
		covered := make([]bool, tc.total)
		stride := tc.total / tc.n
		for i := 0; i < tc.n; i++ {
			lo, hi := fleetWindow(i, tc.n, tc.total)
			if lo < 0 || hi > tc.total || lo >= hi {
				t.Fatalf("n=%d total=%d: window %d = [%d,%d) is empty or out of range", tc.n, tc.total, i, lo, hi)
			}
			for j := lo; j < hi; j++ {
				covered[j] = true
			}
			if tc.total <= tc.n {
				if lo != 0 || hi != tc.total {
					t.Errorf("n=%d total=%d: window %d = [%d,%d), want the whole corpus", tc.n, tc.total, i, lo, hi)
				}
				continue
			}
			wantLo, wantHi := max(0, i*stride-stride/2), min(tc.total, (i+1)*stride+stride/2)
			if i == tc.n-1 {
				wantHi = tc.total
			}
			if lo != wantLo || hi != wantHi {
				t.Errorf("n=%d total=%d: window %d = [%d,%d), want [%d,%d)", tc.n, tc.total, i, lo, hi, wantLo, wantHi)
			}
			if i > 0 {
				if _, prevHi := fleetWindow(i-1, tc.n, tc.total); prevHi-lo < stride/2 {
					t.Errorf("n=%d total=%d: windows %d and %d overlap by %d, want at least half a stride (%d)",
						tc.n, tc.total, i-1, i, prevHi-lo, stride/2)
				}
			}
		}
		for j, ok := range covered {
			if !ok {
				t.Fatalf("n=%d total=%d: entry %d is in no window", tc.n, tc.total, j)
			}
		}
	}
}
