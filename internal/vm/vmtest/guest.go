// Package vmtest holds the random guest generator the differential tests of
// the VM's engines and of the tools attached to them share.
package vmtest

import (
	"fmt"
	"math/rand"

	"sweeper/internal/asm"
	"sweeper/internal/vm"
)

// RandomGuest returns a builder for one random guest program: ALU soup, loads
// and stores through a scratch data segment, stack traffic, division hazards
// and a dense branch web. The VM's differential fuzzers (untooled, tooled and
// probed) and the slicer's graph-identity test draw their guests from it.
func RandomGuest(r *rand.Rand, n int) func(b *asm.Builder) {
	regs := []vm.Reg{vm.R0, vm.R1, vm.R2, vm.R3, vm.R4, vm.R5, vm.R7}
	return func(b *asm.Builder) {
		b.DataSpace("scratch", 256)
		b.Func("main")
		b.LoadDataAddr(vm.R6, "scratch") // R6 anchors memory traffic
		labels := 0
		for i := 0; i < n; i++ {
			if i%10 == 0 {
				b.Label(fmt.Sprintf("main.l%d", labels))
				labels++
			}
			rd := regs[r.Intn(len(regs))]
			rs := regs[r.Intn(len(regs))]
			switch r.Intn(16) {
			case 0:
				b.AddI(rd, int32(r.Intn(64)))
			case 1:
				b.AddI(rd, int32(r.Intn(64))) // weight addi like real code
			case 2:
				b.Mov(rd, rs)
			case 3:
				b.CmpI(rd, int32(r.Intn(32)))
			case 4:
				b.LoadB(rd, vm.R6, int32(r.Intn(200)))
			case 5:
				b.StoreB(vm.R6, int32(r.Intn(200)), rs)
			case 6:
				b.LoadW(rd, vm.R6, int32(r.Intn(196)))
			case 7:
				b.StoreW(vm.R6, int32(r.Intn(196)), rs)
			case 8:
				b.Push(rd)
			case 9:
				b.Pop(rd)
			case 10:
				b.Sub(rd, rs)
			case 11:
				b.Div(rd, rs) // faults when rs holds zero
			case 12:
				b.MulI(rd, int32(r.Intn(8)))
			case 13:
				b.Cmp(rd, rs)
			case 14:
				// Branch into the existing label web.
				target := fmt.Sprintf("main.l%d", r.Intn(labels))
				switch r.Intn(3) {
				case 0:
					b.Jz(target)
				case 1:
					b.Jge(target)
				default:
					b.Jlt(target)
				}
			case 15:
				b.ShlI(rd, int32(r.Intn(8)))
			}
		}
		b.Halt()
	}
}
