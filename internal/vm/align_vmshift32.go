//go:build vmshift32

package vm

// Building with -tags vmshift32 links this file's one small function ahead of
// runFused, moving the fused loop — and all code after it — by one 32-byte
// function-alignment slot, to the other half of a 64-byte line. A VM-bound
// measurement taken with and without the tag sees both placements the
// linker can give the loop. The variable keeps the function from being
// empty, and so from being dropped.
var shifted32 bool

//go:noinline
func init() { shifted32 = true }
