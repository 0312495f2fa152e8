package main

import (
	"io"
	"strings"
	"testing"
)

func TestParseCLI(t *testing.T) {
	c, err := parseCLI([]string{"-mix", "mix2", "-seed", "7", "-measure", "24"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if c.mix.Name != "Mix-2" || c.seed != 7 || c.measure != 24 {
		t.Errorf("flags not threaded: %+v", c)
	}
	if c, err = parseCLI(nil, io.Discard); err != nil || c.mix.Name != "Mix-1" || c.seed != 1 || c.measure != 240 {
		t.Errorf("defaults = %+v, %v", c, err)
	}
}

// TestParseCLIRejects: below 24 measurement intervals the white-noise run
// has two 8-interval windows, so every transducer fit is exact and
// meaningless; the flag is refused at parse time.
func TestParseCLIRejects(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"measure 23", []string{"-measure", "23"}, "-measure 23 is below 24"},
		{"measure 2", []string{"-measure", "2"}, "-measure 2 is below 24"},
		{"negative measure", []string{"-measure", "-8"}, "-measure -8 is below 24"},
		{"bad mix", []string{"-mix", "nope"}, "nope"},
		{"unknown flag", []string{"-windows", "4"}, "windows"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseCLI(c.argv, io.Discard)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("parseCLI(%v) = %v, want error containing %q", c.argv, err, c.want)
			}
		})
	}
}
