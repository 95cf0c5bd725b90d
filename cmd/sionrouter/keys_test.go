package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cluster"
	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/serve"
)

// TestRouterKeyEndpoints drives /rank/<r>/keys and /rank/<r>/key/<k>
// through the cluster data path: the key index and every key's
// concatenated payload match what the writers recorded, and malformed
// keys are 400s.
func TestRouterKeyEndpoints(t *testing.T) {
	const nkeys, nrecs = 3, 9
	fsys := fsio.NewOS(t.TempDir())
	want := make([][][]byte, rtRanks) // rank → key → concatenated payload
	mpi.Run(rtRanks, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "kv", sion.WriteMode, &sion.Options{ChunkSize: 512, FSBlockSize: 128})
		if err != nil {
			t.Errorf("rank %d: ParOpen: %v", c.Rank(), err)
			return
		}
		kw, err := sion.NewKeyWriter(f)
		if err != nil {
			t.Errorf("rank %d: NewKeyWriter: %v", c.Rank(), err)
			return
		}
		byKey := make([][]byte, nkeys)
		for i := 0; i < nrecs; i++ {
			val := rtPayload(10*c.Rank()+i, 30+7*i)
			if err := kw.WriteKey(uint64(i%nkeys), val); err != nil {
				t.Errorf("rank %d: WriteKey: %v", c.Rank(), err)
				return
			}
			byKey[i%nkeys] = append(byKey[i%nkeys], val...)
		}
		want[c.Rank()] = byKey
		if err := f.Close(); err != nil {
			t.Errorf("rank %d: Close: %v", c.Rank(), err)
		}
	})
	rt := &router{c: cluster.New(nil), fsys: fsys, name: "kv", scfg: &serve.Config{}}
	for i := 1; i <= 3; i++ {
		if _, err := rt.c.Join(fmt.Sprintf("n%d", i), fsys, "kv", rt.scfg); err != nil {
			t.Fatalf("Join n%d: %v", i, err)
		}
	}
	t.Cleanup(func() { rt.c.Close() })
	mux := rt.mux()

	for r := 0; r < rtRanks; r++ {
		rec := get(t, mux, fmt.Sprintf("/rank/%d/keys", r))
		if rec.Code != 200 {
			t.Fatalf("rank %d keys: status %d (%s)", r, rec.Code, rec.Body.String())
		}
		var keys []uint64
		if err := json.Unmarshal(rec.Body.Bytes(), &keys); err != nil {
			t.Fatalf("rank %d keys body %q: %v", r, rec.Body.String(), err)
		}
		if len(keys) != nkeys {
			t.Errorf("rank %d: keys %v, want %d keys", r, keys, nkeys)
		}
		for k := 0; k < nkeys; k++ {
			rec := get(t, mux, fmt.Sprintf("/rank/%d/key/%d", r, k))
			if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want[r][k]) {
				t.Errorf("rank %d key %d: status %d, %d bytes, want 200 and %d bytes",
					r, k, rec.Code, rec.Body.Len(), len(want[r][k]))
			}
		}
	}
	if rec := get(t, mux, "/rank/0/key/x"); rec.Code != 400 {
		t.Errorf("malformed key: status %d, want 400", rec.Code)
	}
	if rec := get(t, mux, "/rank/0/nope"); rec.Code != 404 {
		t.Errorf("unknown rank endpoint: status %d, want 404", rec.Code)
	}
}
