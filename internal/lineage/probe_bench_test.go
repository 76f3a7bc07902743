package lineage

import "testing"

// benchmarkLineageProbeDepth times what the runtime does per traced, cacheable
// instruction inside a loop: build the output item over the loop-carried
// item (consumed twice), probe the cache (a miss) and insert the result. One
// op is one probe; the chain restarts from its leaf every depth ops, so the
// probed items sit 1..depth levels above it. ns/op and allocs/op must not
// depend on depth — a probe that walks the input tree doubles per level.
func benchmarkLineageProbeDepth(b *testing.B, depth int) {
	cache := NewCache(1 << 30)
	leaf := NewCreation("tread", "w")
	head, level := leaf, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if level == depth {
			cache.Clear()
			head, level = leaf, 0
		}
		item := NewInstruction("-", "0=0.0001", head, head)
		if _, ok := cache.Get(item); ok {
			b.Fatal("a never-inserted item hit")
		}
		cache.Put(item, item, 8, 1)
		head = item
		level++
	}
}

func BenchmarkLineageProbeDepth10(b *testing.B)   { benchmarkLineageProbeDepth(b, 10) }
func BenchmarkLineageProbeDepth100(b *testing.B)  { benchmarkLineageProbeDepth(b, 100) }
func BenchmarkLineageProbeDepth1000(b *testing.B) { benchmarkLineageProbeDepth(b, 1000) }
