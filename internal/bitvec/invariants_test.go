package bitvec

import (
	"math/rand"
	"testing"
)

// TestCheckInvariants exercises the deep verification over assorted
// shapes. In default builds CheckInvariants is a no-op and this only
// pins the API; under -tags kminvariants it runs the real checks.
func TestCheckInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 63, 64, 65, 511, 512, 513, 4097, 20000} {
		v := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				v.Set(i)
			}
		}
		if err := NewRank(v).CheckInvariants(); err != nil {
			t.Errorf("random n=%d: %v", n, err)
		}

		ones := New(n)
		for i := 0; i < n; i++ {
			ones.Set(i)
		}
		if err := NewRank(ones).CheckInvariants(); err != nil {
			t.Errorf("all-ones n=%d: %v", n, err)
		}
		if err := NewRank(New(n)).CheckInvariants(); err != nil {
			t.Errorf("all-zeros n=%d: %v", n, err)
		}
	}

	// Appended vectors share the invariant surface with preallocated
	// ones.
	v := New(0)
	for i := 0; i < 1000; i++ {
		v.Append(i%7 == 0)
	}
	if err := NewRank(v).CheckInvariants(); err != nil {
		t.Errorf("appended: %v", err)
	}
}
