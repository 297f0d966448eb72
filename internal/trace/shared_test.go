package trace

import (
	"bytes"
	"sync"
	"testing"
	"unsafe"
)

// TestB2EquivalenceSharedTable drives the shared-table protocol from
// several goroutines at once: decoders over one SharedTable each decode
// every block, so every path is a first sighting for every decoder and
// the lookups under the read lock race the interns under the write
// lock. Each decoder must still yield the file's records, hand back
// the one FileID the table holds for each record's path, and hand back
// the table's own string for it — a path is copied once per table, not
// once per decoder that meets it.
func TestB2EquivalenceSharedTable(t *testing.T) {
	want, enc := b2Fixture(t, 3000, 40)
	// Rename the paths so the table ends up far larger than a block's
	// dictionary: most blocks then miss on most of their entries.
	for i := range want {
		want[i].MSSPath += "/r" + itoa(i%211)
	}
	enc = encodeB2(t, want, 40)
	f, err := OpenB2File(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for i := range want {
		distinct[want[i].MSSPath] = true
	}
	first := make([]int, f.NumBlocks()+1)
	for b := 0; b < f.NumBlocks(); b++ {
		first[b+1] = first[b] + int(f.Meta(b).Count)
	}
	for _, decoders := range []int{1, 2, 4, 8} {
		table := NewSharedTable()
		got := make([][]Record, decoders) // decoder → the file's records, in file order
		ids := make([][]FileID, decoders)
		errs := make([]error, decoders)
		var wg sync.WaitGroup
		for g := 0; g < decoders; g++ {
			got[g], ids[g] = make([]Record, len(want)), make([]FileID, len(want))
			wg.Add(1)
			go func() {
				defer wg.Done()
				d := f.NewBlockDecoder(table)
				for i := 0; i < f.NumBlocks(); i++ {
					// Every decoder starts at another block, so first
					// sightings land on all of them.
					b := (i + g*f.NumBlocks()/decoders) % f.NumBlocks()
					lo, hi := first[b], first[b+1]
					if errs[g] = d.DecodeInto(b, got[g][lo:hi], ids[g][lo:hi]); errs[g] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		if table.Len() != len(distinct) {
			t.Fatalf("%d decoders: table holds %d paths for %d distinct ones", decoders, table.Len(), len(distinct))
		}
		for g := range got {
			if errs[g] != nil {
				t.Fatalf("%d decoders: decoder %d: %v", decoders, g, errs[g])
			}
			requireSameRecords(t, got[g], want, "shared-table DecodeInto")
			for k, r := range got[g] {
				p := table.Path(ids[g][k])
				if p != r.MSSPath {
					t.Fatalf("%d decoders: decoder %d record %d: ID names %q, record says %q", decoders, g, k, p, r.MSSPath)
				}
				if unsafe.StringData(p) != unsafe.StringData(r.MSSPath) {
					t.Fatalf("%d decoders: decoder %d record %d: %q is a second copy of the table's string", decoders, g, k, p)
				}
			}
		}
	}
}
