package repro

import "testing"

func TestAdjustLarge(t *testing.T) {
	if got := adjustLarge("sqrt", 16); got != 1 {
		t.Errorf("sqrt adjustment: %v", got)
	}
	if got := adjustLarge("log2", 32); got != 2 {
		t.Errorf("log2 adjustment: %v", got)
	}
	if got := adjustLarge("butterfly", 7); got != 7 {
		t.Errorf("butterfly must be unadjusted: %v", got)
	}
}

func TestQuickSubsetStable(t *testing.T) {
	// The quick subset must pick a fixed, documented set of circuits.
	small := 0
	for _, b := range quickSubset(nil) {
		_ = b
		small++
	}
	if small != 0 {
		t.Error("empty input must give empty subset")
	}
}
