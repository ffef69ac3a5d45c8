package slicing

// ChunkLen lets tests place nodes and dependence rows on chunk boundaries.
const ChunkLen = chunkLen

// Row returns the static instruction and the dependence row recorded for
// node seq, for the graph-identity tests.
func (s *Slicer) Row(seq int) (instrIdx int, deps []int) {
	from, to := s.row(int32(seq))
	for j := from; j < to; j++ {
		deps = append(deps, int(s.deps.at(j)))
	}
	return int(s.instrIdx.at(int32(seq))), deps
}
