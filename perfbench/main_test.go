package main

import "testing"

func TestEveryWorkloadHasAReference(t *testing.T) {
	refs, err := references()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(refs[w.name]) == 0 {
			t.Errorf("reference.json has no outcome for %s", w.name)
		}
	}
	if len(refs) != len(workloads) {
		t.Errorf("reference.json has %d workloads, the benchmark %d", len(refs), len(workloads))
	}
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 30 samples: p50 leaves 15 beyond, p75 only 7.
	if got := tailOf(xs); got.Pct != 50 || got.Value != 15 || got.N != 30 {
		t.Errorf("tailOf(1..30) = %+v, want p50 = 15", got)
	}
	if got := tailOf(xs[:9]); got.Pct != 0 || got.N != 9 {
		t.Errorf("tailOf(9 samples) = %+v, want no percentile", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}
