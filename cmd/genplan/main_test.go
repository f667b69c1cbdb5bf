package main

import (
	"strings"
	"testing"
)

// TestBuildQueryShortcutBounds tries each shortcut shape at its smallest
// valid argument and at the first invalid one: the first builds a query,
// the second is a usage error naming the flag, not a panic.
func TestBuildQueryShortcutBounds(t *testing.T) {
	none := shortcuts{line: -1, star: -1, lollipop: -1}
	with := func(f func(*shortcuts)) shortcuts { sc := none; f(&sc); return sc }
	cases := []struct {
		name  string
		sc    shortcuts
		edges int // 0 for a usage error
	}{
		{"-line 1", with(func(s *shortcuts) { s.line = 1 }), 1},
		{"-line 0", with(func(s *shortcuts) { s.line = 0 }), 0},
		{"-star 1", with(func(s *shortcuts) { s.star = 1 }), 2},
		{"-star 0", with(func(s *shortcuts) { s.star = 0 }), 0},
		{"-lollipop 2", with(func(s *shortcuts) { s.lollipop = 2 }), 4},
		{"-lollipop 1", with(func(s *shortcuts) { s.lollipop = 1 }), 0},
		{"-dumbbell 2,4", with(func(s *shortcuts) { s.dumbbell = "2,4" }), 5},
		{"-dumbbell 1,3", with(func(s *shortcuts) { s.dumbbell = "1,3" }), 0},
		{"-dumbbell 2,3", with(func(s *shortcuts) { s.dumbbell = "2,3" }), 0},
		{"-dumbbell 3,3", with(func(s *shortcuts) { s.dumbbell = "3,3" }), 0},
	}
	for _, c := range cases {
		g, sizes, err := buildQuery(nil, c.sc, 1000)
		if c.edges == 0 {
			flagName := strings.Fields(c.name)[0]
			if err == nil || !strings.Contains(err.Error(), flagName) {
				t.Errorf("%s: got %v, %v, want a usage error naming %s", c.name, g, err, flagName)
			}
			continue
		}
		if err != nil || g.NumEdges() != c.edges || len(sizes) != c.edges {
			t.Errorf("%s: got %v (%d sizes), %v, want %d edges", c.name, g, len(sizes), err, c.edges)
		}
	}
}
