package geo

import "testing"

// BenchmarkPartition measures field splitting at large swarm sizes.
func BenchmarkPartition(b *testing.B) {
	field := NewField(1000, 1000)
	for i := 0; i < b.N; i++ {
		Partition(field, 1024)
	}
}
