package experiments

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/cpm-sim/cpm/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the quick-report digests in testdata")

var reportsPath = filepath.Join("testdata", "quick_reports.json")

// reportDigest pins one Quick-mode harness result: FNV-1a digests of its
// rendered text, of its headline metrics and of every series it exports.
// Numbers are hashed at 9 significant digits, the golden digests' input
// format, so a digest moves with any real numerical drift but not with the
// last bits of a reordered float sum the text never shows.
type reportDigest struct {
	Text    string `json:"text"`
	Metrics string `json:"metrics"`
	Sets    string `json:"sets"`
}

func digestResult(r Result) reportDigest {
	sum := func(b []byte) string {
		h := fnv.New64a()
		h.Write(b)
		return fmt.Sprintf("%016x", h.Sum64())
	}
	num := func(b []byte, v float64) []byte {
		return append(strconv.AppendFloat(b, v, 'g', 9, 64), '\n')
	}
	var m []byte
	for _, k := range trace.SortedKeys(r.Metrics) {
		m = num(append(m, k+"="...), r.Metrics[k])
	}
	var s []byte
	for _, name := range trace.SortedKeys(r.Sets) {
		set := r.Sets[name]
		s = append(s, "set "+name+" x "+set.XName+"\n"...)
		for _, ser := range set.Series() {
			s = append(s, "series "+ser.Name+"\n"...)
			for _, v := range ser.Samples {
				s = num(s, v)
			}
		}
	}
	return reportDigest{Text: sum([]byte(r.Text)), Metrics: sum(m), Sets: sum(s)}
}

// TestQuickReports runs every registered harness in Quick mode and compares
// its report, metrics and series against the digests in
// testdata/quick_reports.json, so any change to what a harness prints or
// exports fails here. Run with -update to rewrite the file after an
// intentional change.
func TestQuickReports(t *testing.T) {
	if testing.Short() {
		t.Skip("every harness in -short mode")
	}
	got := map[string]reportDigest{}
	for _, d := range All() {
		got[d.ID] = digestResult(quick(t, d.ID))
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(reportsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", reportsPath)
		return
	}
	b, err := os.ReadFile(reportsPath)
	if errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("no pins at %s; run `go test ./internal/experiments -run TestQuickReports -update`", reportsPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]reportDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parsing %s: %v", reportsPath, err)
	}
	for _, id := range trace.SortedKeys(got) {
		w, ok := want[id]
		switch {
		case !ok:
			t.Errorf("%s has no pin in %s", id, reportsPath)
		case got[id] != w:
			t.Errorf("%s drifted: got %+v, pinned %+v", id, got[id], w)
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("%s is pinned but not registered", id)
		}
	}
}
