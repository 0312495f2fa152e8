package serve

import (
	"fmt"
	"net/http"
	"testing"
)

func cacheRes(tag string) *result {
	return &result{body: []byte(tag)}
}

// TestLRUCacheEviction pins the recency discipline: the bound holds and
// the least recently *used* entry — not the oldest inserted — is evicted.
func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	c.add("a", cacheRes("a"))
	c.add("b", cacheRes("b"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before any eviction")
	}
	// a was just used, so adding c must evict b.
	c.add("c", cacheRes("c"))
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	for _, want := range []string{"a", "c"} {
		res, ok := c.get(want)
		if !ok {
			t.Errorf("%s evicted unexpectedly", want)
		} else if string(res.body) != want {
			t.Errorf("%s returned body %q", want, res.body)
		}
	}
}

// TestLRUCacheRefresh: re-adding an existing key updates in place without
// growing the cache or losing other entries.
func TestLRUCacheRefresh(t *testing.T) {
	c := newLRUCache(2)
	c.add("a", cacheRes("a1"))
	c.add("b", cacheRes("b"))
	c.add("a", cacheRes("a2"))
	if c.len() != 2 {
		t.Fatalf("len = %d after refresh, want 2", c.len())
	}
	res, ok := c.get("a")
	if !ok || string(res.body) != "a2" {
		t.Errorf("refreshed entry = %v, %v; want a2", res, ok)
	}
	// b is now least recently used; a third key evicts it, not a.
	c.add("c", cacheRes("c"))
	if _, ok := c.get("b"); ok {
		t.Error("b survived; refresh did not move a to the front")
	}
}

// TestLRUCacheDisabled: cap <= 0 must behave as a null cache, which is
// what Options.CacheEntries <= 0 wires.
func TestLRUCacheDisabled(t *testing.T) {
	for _, cap := range []int{0, -1} {
		c := newLRUCache(cap)
		c.add("a", cacheRes("a"))
		if _, ok := c.get("a"); ok {
			t.Errorf("cap %d cached an entry", cap)
		}
		if c.len() != 0 {
			t.Errorf("cap %d len = %d", cap, c.len())
		}
	}
}

// TestLRUCacheChurn exercises the map/list bookkeeping across many
// evictions: the two structures must never disagree.
func TestLRUCacheChurn(t *testing.T) {
	c := newLRUCache(8)
	for i := 0; i < 100; i++ {
		c.add(fmt.Sprintf("k%d", i), cacheRes("x"))
		if c.len() > 8 {
			t.Fatalf("bound broken at insert %d: len %d", i, c.len())
		}
		if len(c.byKey) != c.ll.Len() {
			t.Fatalf("map %d vs list %d at insert %d", len(c.byKey), c.ll.Len(), i)
		}
	}
	// Only the newest 8 remain.
	for i := 92; i < 100; i++ {
		if _, ok := c.get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("k%d missing from the newest window", i)
		}
	}
	if _, ok := c.get("k91"); ok {
		t.Error("k91 survived past the bound")
	}
}

// TestServerCacheDisabled: with caching off (negative CacheEntries),
// sequential identical requests re-run the simulation — no hidden caching
// layer.
func TestServerCacheDisabled(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, CacheEntries: -1})
	doc := runDoc(shortRun("cpm-default", goldenSeed))
	first := wantStatus(t, postJSON(t, ts, doc), 200)
	second := wantStatus(t, postJSON(t, ts, doc), 200)
	st := srv.Stats()
	if st.Runs != 2 || st.Hits != 0 {
		t.Errorf("uncached server: %+v, want 2 runs and 0 hits", st)
	}
	// Re-running must still be deterministic: same bytes, fresh simulation.
	if string(first) != string(second) {
		t.Errorf("two uncached runs of one request differ")
	}
}

// TestCachedResultIsTight pins the memory a cache entry costs: each
// rendering of a fresh result is stored at about its own length, not in the
// larger buffer it was encoded into.
func TestCachedResultIsTight(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	wantStatus(t, postJSON(t, ts, runDoc(Request{Scenario: "cpm-default", Seed: goldenSeed})), http.StatusOK)
	srv.mu.Lock()
	res := srv.cache.ll.Front().Value.(*lruEntry).res
	srv.mu.Unlock()
	for name, b := range map[string][]byte{"body": res.body, "ndjson": res.ndjson} {
		if spare := cap(b) - len(b); 4*spare >= len(b) {
			t.Errorf("%s keeps %d spare bytes beside its %d", name, spare, len(b))
		}
	}
}
