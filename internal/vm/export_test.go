package vm

// LoopRetired returns how many instructions loop kernels have retired on m.
func (m *Machine) LoopRetired() uint64 { return m.loopRetired }

// LoopKernels reports, for each loop of m's image, the index of its head,
// whether the next Run would run its kernel (its head carries opLoop in the
// micro-ops the engines run), and whether any index of its span carries a probe.
func (m *Machine) LoopKernels() (heads []int, armed, probed []bool) {
	if m.overlayDirty {
		m.rebuildOverlay()
	}
	for _, lp := range m.loops {
		heads = append(heads, lp.head)
		armed = append(armed, Op(m.uops[lp.head]&uopOpMask) == opLoop)
		has := false
		for _, list := range m.probes[lp.head : lp.head+lp.n] {
			has = has || len(list) > 0
		}
		probed = append(probed, has)
	}
	return heads, armed, probed
}

// ProbesAt returns the probes registered on instruction idx.
func (m *Machine) ProbesAt(idx int) []Probe { return m.probes[idx] }

// FusionPairs returns the fusion table's opcode pairs, in opcode order.
func FusionPairs() (pairs [][2]Op) {
	for a := Op(0); a < numOps; a++ {
		for b := Op(0); b < numOps; b++ {
			if _, ok := fusePair(a, b); ok {
				pairs = append(pairs, [2]Op{a, b})
			}
		}
	}
	return pairs
}

// Fusible reports whether op can sit in a block's body (see fusible).
func Fusible(op Op) bool { return fusible(op) }
