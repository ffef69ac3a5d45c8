package slicing

import "unsafe"

// ChunkLen lets tests place nodes and dependence rows on chunk boundaries.
const ChunkLen = chunkLen

// Row returns the static instruction and the dependences of node seq, for
// the graph-identity tests.
func (s *Slicer) Row(seq int) (instrIdx int, deps []int) {
	idx, row := s.cursor().node(int32(seq))
	for _, d := range row {
		deps = append(deps, int(d))
	}
	return int(idx), deps
}

// Entries counts the int32 the recorded graph is stored in: the three CSR
// slabs, the loop runs' records and their iterations' memory dependences.
func (s *Slicer) Entries() int {
	return int(s.instrIdx.n+s.depStart.n+s.deps.n+s.loads.n) + len(s.runs)*int(unsafe.Sizeof(run{})/4)
}

// Runs returns the sequence numbers [first, end) of each loop run and its
// span's length.
func (s *Slicer) Runs() (runs [][3]int) {
	for _, r := range s.runs {
		runs = append(runs, [3]int{int(r.first), int(r.end), int(s.tmpls[r.tmpl].n)})
	}
	return runs
}
