package core

import "testing"

func TestMarks(t *testing.T) {
	var m Marks
	if m.get(5) != 0 {
		t.Fatal("empty table must report no flags")
	}
	for v := int32(0); v < 1000; v++ {
		m.Set(v*7, MStar)
		if v%3 == 0 {
			m.Set(v*7, MQueued)
		}
	}
	m.Unset(21, MStar)
	for v := int32(0); v < 1000; v++ {
		want := MStar
		if v%3 == 0 {
			want |= MQueued
		}
		if v == 3 {
			want &^= MStar
		}
		if got := m.get(v * 7); got != want {
			t.Fatalf("flags(%d) = %b, want %b", v*7, got, want)
		}
		if v%7 != 0 && m.get(v) != 0 {
			t.Fatalf("unmarked %d has flags", v)
		}
	}
	m.Reset()
	if len(m.used) != 0 || m.get(7) != 0 {
		t.Fatal("Reset must clear every flag")
	}
	// A table grown far beyond scratchKeep entries is dropped by Reset.
	for v := int32(0); v < 4*scratchKeep; v++ {
		m.Set(v, MDone)
	}
	m.Reset()
	if m.slots != nil {
		t.Fatalf("reset kept a %d-slot table", len(m.slots))
	}
}
