package main

import (
	"io"
	"strings"
	"testing"
)

func TestParseReplay(t *testing.T) {
	a, err := parseReplay([]string{"-mix", "mix2", "-i", "t.bin", "-budget", "0.6", "-epochs", "4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if a.mix.Name != "Mix-2" || a.in != "t.bin" || a.budget != 0.6 || a.epochs != 4 {
		t.Errorf("replay flags not threaded: %+v", a)
	}
	if a, err = parseReplay([]string{"-i", "t.bin"}, io.Discard); err != nil || a.budget != 0.8 || a.epochs != 16 {
		t.Errorf("defaults = %+v, %v", a, err)
	}
}

func TestParseReplayRejects(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"no input", []string{"-budget", "0.8"}, "-i is required"},
		{"NaN budget", []string{"-i", "t.bin", "-budget", "NaN"}, "-budget NaN out of (0, 1]"},
		{"infinite budget", []string{"-i", "t.bin", "-budget", "+Inf"}, "-budget +Inf out of (0, 1]"},
		{"zero budget", []string{"-i", "t.bin", "-budget", "0"}, "-budget 0 out of (0, 1]"},
		{"budget above one", []string{"-i", "t.bin", "-budget", "1.5"}, "-budget 1.5 out of (0, 1]"},
		{"zero epochs", []string{"-i", "t.bin", "-epochs", "0"}, "-epochs must be > 0"},
		{"bad mix", []string{"-i", "t.bin", "-mix", "nope"}, "nope"},
		{"unknown flag", []string{"-bogus"}, "bogus"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseReplay(c.argv, io.Discard)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("parseReplay(%v) = %v, want error containing %q", c.argv, err, c.want)
			}
		})
	}
}

func TestParseRecord(t *testing.T) {
	a, err := parseRecord([]string{"-mix", "mix2", "-intervals", "40", "-o", "t.bin", "-seed", "7"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if a.mix.Name != "Mix-2" || a.intervals != 40 || a.out != "t.bin" || a.seed != 7 {
		t.Errorf("record flags not threaded: %+v", a)
	}
	if a, err = parseRecord([]string{"-o", "t.bin"}, io.Discard); err != nil || a.mix.Name != "Mix-1" || a.intervals != 800 || a.seed != 1 {
		t.Errorf("defaults = %+v, %v", a, err)
	}
}

func TestParseRecordRejects(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{"no output", []string{"-intervals", "10"}, "-o is required"},
		{"zero intervals", []string{"-o", "t.bin", "-intervals", "0"}, "-intervals must be > 0, got 0"},
		{"negative intervals", []string{"-o", "t.bin", "-intervals", "-5"}, "-intervals must be > 0, got -5"},
		{"bad mix", []string{"-o", "t.bin", "-mix", "nope"}, "nope"},
		{"unknown flag", []string{"-bogus"}, "bogus"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseRecord(c.argv, io.Discard)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("parseRecord(%v) = %v, want error containing %q", c.argv, err, c.want)
			}
		})
	}
}
