package serve

import "testing"

func TestVerdictMemoRotationAndPromotion(t *testing.T) {
	vm := newVerdictMemo(2)
	vm.put("a", true)
	vm.put("b", false)
	// cur is full; the next put rotates it to prev.
	vm.put("c", true)
	if v, ok := vm.get("a"); !ok || !v {
		t.Fatalf("a lost after rotation: %v %v", v, ok)
	}
	// The get promoted "a" into cur; another rotation must keep it.
	vm.put("d", true)
	vm.put("e", true)
	if _, ok := vm.get("a"); !ok {
		t.Fatal("promoted entry a dropped by later rotation")
	}
	if vm.size() > 4 {
		t.Fatalf("memo holds %d entries, cap is 2 per generation", vm.size())
	}
}
