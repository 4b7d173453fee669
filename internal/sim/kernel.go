package sim

import "fmt"

// DefaultKernelWords is the widest batch a KernelEngine runs by default, in
// 64-lane words: 16 words = 1024 independent fault-simulation lanes per
// combinational pass — exactly one default campaign chunk, so a chunk is
// simulated in one pass and its straggler tail is paid once. The fault
// runner treats it as a cap and sizes each engine to the chunk's 64-lane
// group count, so small campaigns evaluate no empty words. Wider batches
// amortize instruction dispatch further but grow the register file
// (BenchmarkKernelEval measures the per-instruction cost by width).
const DefaultKernelWords = 16

// kOp is a kernel bytecode opcode. The And/Or/Nand/Nor groups must stay
// consecutive in 2→4 input order; the encoder indexes into them.
type kOp uint8

const (
	kBuf kOp = iota
	kInv
	kAnd2
	kAnd3
	kAnd4
	kOr2
	kOr3
	kOr4
	kNand2
	kNand3
	kNand4
	kNor2
	kNor3
	kNor4
	kXor2
	kXnor2
	kMux2
	kAOI21
	kOAI21
	kAO21 // (a&b)|c — fused and-or
	kOA21 // (a|b)&c — fused or-and
	kAndN // a &^ b — fused and-not
	kOrN  // a | ^b — fused or-not
)

// kinstr is one kernel instruction: an opcode plus register-slot operands.
// Slots are register-file rows; a KernelEngine scales them by its batch
// width when it loads the code.
type kinstr struct {
	dst        int32
	a, b, c, d int32
	op         kOp
}

// KernelConfig parameterizes kernel compilation.
type KernelConfig struct {
	// KeepOutputs lists the output ports that must stay observable
	// (monitored ports and loopback sources); dead-fanout pruning removes
	// logic feeding only unlisted outputs. nil keeps every output port.
	KeepOutputs []int
}

// Kernel is the compiled, immutable bytecode form of a program: the fused
// and pruned instruction stream plus the register-file layout (input,
// flip-flop and output slot maps). Build one per program with BuildKernel
// and share it across any number of KernelEngine instances.
type Kernel struct {
	p      *Program
	code   []kinstr
	slots  int
	inSlot []int32 // per input port
	// outSlot is -1 for output ports whose logic was pruned away.
	outSlot  []int32
	ffQ, ffD []int32
	ffInit   []bool
	// staged marks the flip-flops whose D slot is another flip-flop's Q
	// slot: the only captures Commit must stage so FF-to-FF paths see
	// pre-edge values.
	staged         []bool
	const0, const1 int32
	stats          KernelStats
}

// Program returns the program the kernel was compiled from.
func (k *Kernel) Program() *Program { return k.p }

// Stats reports what the kernel compiler did.
func (k *Kernel) Stats() KernelStats { return k.stats }

// KernelEngine executes a kernel over a wide batch of W 64-lane words:
// 64·W independent simulation lanes per combinational pass. Word w, bit l
// is lane 64·w+l; the fault runner maps each word to one scheduled 64-job
// group so wide batches stay bit-identical to W narrow interpreter batches.
//
// The cycle protocol mirrors Engine exactly (SetInput* / FlipFF / Eval /
// read outputs / Commit); state lives in a compact register file laid out
// slot-major (slot s occupies words [s·W, s·W+W)), which keeps each
// instruction's operands in adjacent cache lines.
type KernelEngine struct {
	k    *Kernel
	w    int
	code []kinstr // kernel code with slot operands pre-scaled by w
	regs []uint64
	// direct and staged are the flip-flop captures Commit performs, as
	// pre-scaled (D, Q) register offsets; nextQ holds the staged captures'
	// pre-edge values, len(staged)·W words.
	direct, staged []capture
	nextQ          []uint64
}

// capture is one flip-flop's clock-edge copy from register offset d to q.
type capture struct{ d, q int }

// NewKernelEngine instantiates a kernel over words 64-lane words per batch
// (0 selects DefaultKernelWords). Instances are cheap; create one per
// worker goroutine.
func NewKernelEngine(k *Kernel, words int) *KernelEngine {
	if words <= 0 {
		words = DefaultKernelWords
	}
	e := &KernelEngine{
		k:    k,
		w:    words,
		code: make([]kinstr, len(k.code)),
		regs: make([]uint64, k.slots*words),
	}
	W := int32(words)
	for i, ins := range k.code {
		e.code[i] = kinstr{
			op:  ins.op,
			dst: ins.dst * W,
			a:   ins.a * W, b: ins.b * W, c: ins.c * W, d: ins.d * W,
		}
	}
	for i, q := range k.ffQ {
		c := capture{d: int(k.ffD[i]) * words, q: int(q) * words}
		if k.staged[i] {
			e.staged = append(e.staged, c)
		} else {
			e.direct = append(e.direct, c)
		}
	}
	e.nextQ = make([]uint64, len(e.staged)*words)
	e.Reset()
	return e
}

// Kernel returns the compiled kernel this engine runs.
func (e *KernelEngine) Kernel() *Kernel { return e.k }

// Words returns the batch width in 64-lane words.
func (e *KernelEngine) Words() int { return e.w }

// Lanes returns the total lane count of one batch.
func (e *KernelEngine) Lanes() int { return e.w * Lanes }

// Reset loads the constant slots and every flip-flop's initial value into
// all lanes and clears everything else.
func (e *KernelEngine) Reset() {
	for i := range e.regs {
		e.regs[i] = 0
	}
	e.fillSlot(e.k.const1, ^uint64(0))
	for i, q := range e.k.ffQ {
		if e.k.ffInit[i] {
			e.fillSlot(q, ^uint64(0))
		}
	}
}

func (e *KernelEngine) fillSlot(slot int32, v uint64) {
	base := int(slot) * e.w
	for w := 0; w < e.w; w++ {
		e.regs[base+w] = v
	}
}

// SetInputBool broadcasts one bit to every lane of input port i.
func (e *KernelEngine) SetInputBool(i int, v bool) {
	var word uint64
	if v {
		word = ^uint64(0)
	}
	e.fillSlot(e.k.inSlot[i], word)
}

// SetInputWord drives a packed word onto input port i's batch word w.
func (e *KernelEngine) SetInputWord(i, w int, word uint64) {
	e.regs[int(e.k.inSlot[i])*e.w+w] = word
}

// FlipFF inverts flip-flop ff in the lanes of mask within batch word w —
// the SEU injection primitive, same semantics as Engine.FlipFF per word.
func (e *KernelEngine) FlipFF(ff, w int, mask uint64) {
	e.regs[int(e.k.ffQ[ff])*e.w+w] ^= mask
}

// ForceFF drives flip-flop ff to value in the lanes of mask within batch
// word w — the kernel counterpart of Engine.ForceFF, used by the stuck-at
// fault model.
func (e *KernelEngine) ForceFF(ff, w int, mask uint64, value bool) {
	if value {
		e.regs[int(e.k.ffQ[ff])*e.w+w] |= mask
	} else {
		e.regs[int(e.k.ffQ[ff])*e.w+w] &^= mask
	}
}

// FFWord returns the packed state of flip-flop ff in batch word w.
func (e *KernelEngine) FFWord(ff, w int) uint64 {
	return e.regs[int(e.k.ffQ[ff])*e.w+w]
}

// OutputWord returns the packed word on output port i in batch word w
// (valid after Eval). The port must be in the kernel's kept set.
func (e *KernelEngine) OutputWord(i, w int) uint64 {
	slot := e.k.outSlot[i]
	if slot < 0 {
		panic(fmt.Sprintf("sim: kernel output port %d was pruned (not in KeepOutputs)", i))
	}
	return e.regs[int(slot)*e.w+w]
}

// Eval executes the kernel bytecode: one fused combinational pass over all
// 64·W lanes. Operand offsets are pre-scaled; every instruction reads all
// its operand words before writing the destination word, so in-place
// destinations (the allocator's preferred layout) are safe.
func (e *KernelEngine) Eval() {
	regs := e.regs
	W := e.w
	for i := range e.code {
		ins := &e.code[i]
		rd := regs[ins.dst:][:W]
		ra := regs[ins.a:][:W]
		switch ins.op {
		case kBuf:
			copy(rd, ra)
		case kInv:
			for w := range rd {
				rd[w] = ^ra[w]
			}
		case kAnd2:
			rb := regs[ins.b:][:W]
			for w := range rd {
				rd[w] = ra[w] & rb[w]
			}
		case kAnd3:
			rb, rc := regs[ins.b:][:W], regs[ins.c:][:W]
			for w := range rd {
				rd[w] = ra[w] & rb[w] & rc[w]
			}
		case kAnd4:
			rb, rc, re := regs[ins.b:][:W], regs[ins.c:][:W], regs[ins.d:][:W]
			for w := range rd {
				rd[w] = ra[w] & rb[w] & rc[w] & re[w]
			}
		case kOr2:
			rb := regs[ins.b:][:W]
			for w := range rd {
				rd[w] = ra[w] | rb[w]
			}
		case kOr3:
			rb, rc := regs[ins.b:][:W], regs[ins.c:][:W]
			for w := range rd {
				rd[w] = ra[w] | rb[w] | rc[w]
			}
		case kOr4:
			rb, rc, re := regs[ins.b:][:W], regs[ins.c:][:W], regs[ins.d:][:W]
			for w := range rd {
				rd[w] = ra[w] | rb[w] | rc[w] | re[w]
			}
		case kNand2:
			rb := regs[ins.b:][:W]
			for w := range rd {
				rd[w] = ^(ra[w] & rb[w])
			}
		case kNand3:
			rb, rc := regs[ins.b:][:W], regs[ins.c:][:W]
			for w := range rd {
				rd[w] = ^(ra[w] & rb[w] & rc[w])
			}
		case kNand4:
			rb, rc, re := regs[ins.b:][:W], regs[ins.c:][:W], regs[ins.d:][:W]
			for w := range rd {
				rd[w] = ^(ra[w] & rb[w] & rc[w] & re[w])
			}
		case kNor2:
			rb := regs[ins.b:][:W]
			for w := range rd {
				rd[w] = ^(ra[w] | rb[w])
			}
		case kNor3:
			rb, rc := regs[ins.b:][:W], regs[ins.c:][:W]
			for w := range rd {
				rd[w] = ^(ra[w] | rb[w] | rc[w])
			}
		case kNor4:
			rb, rc, re := regs[ins.b:][:W], regs[ins.c:][:W], regs[ins.d:][:W]
			for w := range rd {
				rd[w] = ^(ra[w] | rb[w] | rc[w] | re[w])
			}
		case kXor2:
			rb := regs[ins.b:][:W]
			for w := range rd {
				rd[w] = ra[w] ^ rb[w]
			}
		case kXnor2:
			rb := regs[ins.b:][:W]
			for w := range rd {
				rd[w] = ^(ra[w] ^ rb[w])
			}
		case kMux2:
			rb, rc := regs[ins.b:][:W], regs[ins.c:][:W]
			for w := range rd {
				s := rc[w]
				rd[w] = (ra[w] &^ s) | (rb[w] & s)
			}
		case kAOI21:
			rb, rc := regs[ins.b:][:W], regs[ins.c:][:W]
			for w := range rd {
				rd[w] = ^((ra[w] & rb[w]) | rc[w])
			}
		case kOAI21:
			rb, rc := regs[ins.b:][:W], regs[ins.c:][:W]
			for w := range rd {
				rd[w] = ^((ra[w] | rb[w]) & rc[w])
			}
		case kAO21:
			rb, rc := regs[ins.b:][:W], regs[ins.c:][:W]
			for w := range rd {
				rd[w] = (ra[w] & rb[w]) | rc[w]
			}
		case kOA21:
			rb, rc := regs[ins.b:][:W], regs[ins.c:][:W]
			for w := range rd {
				rd[w] = (ra[w] | rb[w]) & rc[w]
			}
		case kAndN:
			rb := regs[ins.b:][:W]
			for w := range rd {
				rd[w] = ra[w] &^ rb[w]
			}
		case kOrN:
			rb := regs[ins.b:][:W]
			for w := range rd {
				rd[w] = ra[w] | ^rb[w]
			}
		}
	}
}

// Commit performs the clock edge for all lanes: every flip-flop captures
// its D value. Only the captures whose D slot is another flip-flop's Q slot
// are staged through nextQ, so FF-to-FF paths see pre-edge values; every
// other D slot is combinational, input or constant state no capture
// writes, so those flip-flops copy D to Q directly.
func (e *KernelEngine) Commit() {
	W := e.w
	regs := e.regs
	for i, c := range e.staged {
		copy(e.nextQ[i*W:(i+1)*W], regs[c.d:][:W])
	}
	for _, c := range e.direct {
		copy(regs[c.q:][:W], regs[c.d:][:W])
	}
	for i, c := range e.staged {
		copy(regs[c.q:][:W], e.nextQ[i*W:(i+1)*W])
	}
}
