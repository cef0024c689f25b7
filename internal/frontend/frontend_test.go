package frontend

import (
	"testing"

	"repro/internal/config"
)

// TestFetchUnitStream pins the block-transition semantics: same-block
// PCs are absorbed, +1 transitions are sequential, everything else is
// a redirect (including backward jumps into an already-seen block).
func TestFetchUnitStream(t *testing.T) {
	u := NewFetchUnit(32)
	steps := []struct {
		pc       uint64
		block    uint64
		newBlock bool
		redirect bool
	}{
		{0x1000, 0x1000, true, false}, // first fetch: new block, not a redirect
		{0x1004, 0x1000, false, false},
		{0x101c, 0x1000, false, false},
		{0x1020, 0x1020, true, false}, // sequential fall-through
		{0x2000, 0x2000, true, true},  // forward jump
		{0x2010, 0x2000, false, false},
		{0x1010, 0x1000, true, true}, // backward jump
		{0x1020, 0x1020, true, false},
	}
	for i, s := range steps {
		block, newBlock, redirect := u.Step(s.pc)
		if block != s.block || newBlock != s.newBlock || redirect != s.redirect {
			t.Fatalf("step %d: Step(%#x) = (%#x,%v,%v), want (%#x,%v,%v)",
				i, s.pc, block, newBlock, redirect, s.block, s.newBlock, s.redirect)
		}
	}
	u.Reset()
	if _, newBlock, redirect := u.Step(0x1020); !newBlock || redirect {
		t.Fatal("after Reset the first Step must be a non-redirect new block")
	}
}

// TestNextLineDegree pins the baseline: degree sequential blocks per
// event, trigger provenance attached.
func TestNextLineDegree(t *testing.T) {
	n, err := NewNextLine(3, 32)
	if err != nil {
		t.Fatal(err)
	}
	var got []Candidate
	n.Observe(Event{Block: 0x1000, PC: 0x1004}, func(c Candidate) { got = append(got, c) })
	want := []Candidate{
		{Block: 0x1020, TriggerPC: 0x1004, Source: "nextline"},
		{Block: 0x1040, TriggerPC: 0x1004, Source: "nextline"},
		{Block: 0x1060, TriggerPC: 0x1004, Source: "nextline"},
	}
	if len(got) != len(want) {
		t.Fatalf("emitted %d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRegistry pins the registry contract: both backends registered,
// sorted kinds, alias resolution, and the unknown-kind error naming
// the registered set.
func TestRegistry(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 2 || kinds[0] != "mana" || kinds[1] != "nextline" {
		t.Fatalf("Kinds() = %v, want [mana nextline]", kinds)
	}
	if !Backends.Registered(config.IPrefetchFDIPAlias) {
		t.Fatal("fetch-directed alias must resolve to the nextline constructor")
	}
	fe := config.DefaultFrontend()
	fe.IPrefetch = config.IPrefetchNextLine
	p, err := New(config.IPrefetchFDIPAlias, fe)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "nextline" {
		t.Fatalf("alias built %q, want nextline", p.Name())
	}
	if _, err := New("bogus", fe); err == nil {
		t.Fatal("unknown kind must error")
	}
}
