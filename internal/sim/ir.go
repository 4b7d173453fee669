package sim

import (
	"fmt"

	"repro/internal/netlist"
)

// ir.go is the kernel compiler's middle end: it lowers a levelized Program
// through an optimizing IR into the fused-op bytecode a KernelEngine
// executes (kernel.go). Four passes run over the op list, all of them
// result-preserving on every observable value (kept outputs and flip-flop
// state — the equivalence suite pins bit-identical campaign results):
//
//  1. Simplify: constant folding (TIEL/TIEH propagation, algebraic
//     identities) and copy propagation (BUF elimination, double-inverter
//     collapsing) over a net-aliasing table.
//  2. Fuse: peephole rewrites that merge an op with its producer into one
//     fused superop — INV absorbing AND/OR/XOR into NAND/NOR/XNOR (and
//     back), AND-OR / OR-AND chains into AO21/OA21, their inverted forms
//     into the library's AOI21/OAI21, and inverted operands into
//     and-not/or-not ops.
//  3. Prune: dead-fanout elimination against the observed set — everything
//     outside the input cone of the kept output ports and the flip-flop D
//     pins is dropped. All flip-flops stay: they are the campaign's
//     injection targets and the golden snapshot state, so their next-state
//     logic is always live.
//  4. Allocate: liveness-based register-slot assignment. Values get slots
//     in evaluation order and dead values return their slot to a free list,
//     so the kernel's working set is compacted into a small register file
//     that stays cache-resident regardless of netlist size (operand
//     locality), with destination slots preferentially reusing a dying
//     operand's slot.
//
// Fused superops that have no netlist.Func counterpart live in a private
// extension of the Func space; they exist only between the fuse pass and
// bytecode emission.
const (
	fnAO21 netlist.Func = 1000 + iota // (a&b)|c
	fnOA21                            // (a|b)&c
	fnAndN                            // a &^ b
	fnOrN                             // a | ^b
)

// Net-kind classification of the IR's value table.
const (
	irKindExt   uint8 = iota // externally driven: primary input or FF Q
	irKindOp                 // produced by a surviving op
	irKindC0                 // folded to constant 0
	irKindC1                 // folded to constant 1
	irKindAlias              // alias of another net (BUF/copy propagation)
)

// irOp is one mutable IR operation; the simplify and fuse passes rewrite
// fn/in/nin in place and the prune pass decides which ops reach emission.
type irOp struct {
	fn   netlist.Func
	out  int32
	in   [4]int32
	nin  int8
	dead bool // folded away by simplify
	live bool // reaches an observed value (set by prune)
}

// KernelStats summarizes what the kernel compiler did to a program.
type KernelStats struct {
	// ProgramOps is the interpreter op count the kernel was lowered from.
	ProgramOps int
	// KernelOps is the emitted bytecode instruction count.
	KernelOps int
	// Folded counts ops removed by constant folding and copy propagation.
	Folded int
	// Fused counts peephole rewrites that absorbed a producer op.
	Fused int
	// Pruned counts live-code ops dropped as dead fanout (outside the
	// observed output + flip-flop cone).
	Pruned int
	// Slots is the register-file height in 64-lane words per batch word.
	Slots int
}

// irBuilder carries the per-net value table across passes.
type irBuilder struct {
	p     *Program
	ops   []irOp
	kind  []uint8
	alias []int32 // canonical net for irKindAlias entries
	def   []int32 // producing op index for irOp entries
	fused int
}

// resolve follows the alias table to a canonical net. Aliases are created
// pointing at already-canonical nets, so the chain length is at most one;
// the loop is belt and braces.
func (b *irBuilder) resolve(n int32) int32 {
	for b.kind[n] == irKindAlias {
		n = b.alias[n]
	}
	return n
}

func (b *irBuilder) isConst(n int32) (val, ok bool) {
	switch b.kind[n] {
	case irKindC0:
		return false, true
	case irKindC1:
		return true, true
	}
	return false, false
}

// setConst folds op o away, pinning its output net to a constant.
func (b *irBuilder) setConst(o *irOp, one bool) {
	if one {
		b.kind[o.out] = irKindC1
	} else {
		b.kind[o.out] = irKindC0
	}
	o.dead = true
}

// setAlias folds op o away, aliasing its output to canonical net target.
func (b *irBuilder) setAlias(o *irOp, target int32) {
	b.kind[o.out] = irKindAlias
	b.alias[o.out] = target
	o.dead = true
}

// newIR seeds the value table from a program: every net defaults to
// externally driven (inputs, FF outputs) until an op claims it.
func newIR(p *Program) *irBuilder {
	b := &irBuilder{
		p:     p,
		ops:   make([]irOp, len(p.ops)),
		kind:  make([]uint8, p.nets),
		alias: make([]int32, p.nets),
		def:   make([]int32, p.nets),
	}
	for i := range b.def {
		b.def[i] = -1
	}
	for i, o := range p.ops {
		b.ops[i] = irOp{fn: o.fn, out: o.out, in: o.in, nin: o.nin}
	}
	return b
}

// simplify is pass 1: forward constant folding and copy propagation. Ops
// are visited in topological order, so every input's classification is
// final when its consumers are simplified.
func (b *irBuilder) simplify() {
	for i := range b.ops {
		o := &b.ops[i]
		for j := int8(0); j < o.nin; j++ {
			o.in[j] = b.resolve(o.in[j])
		}
		switch o.fn {
		case netlist.FuncConst0:
			b.setConst(o, false)
		case netlist.FuncConst1:
			b.setConst(o, true)
		case netlist.FuncBuf:
			b.setAlias(o, o.in[0])
		case netlist.FuncInv:
			if v, ok := b.isConst(o.in[0]); ok {
				b.setConst(o, !v)
			} else if d := b.defOf(o.in[0]); d != nil && d.fn == netlist.FuncInv {
				// INV∘INV: the grandparent value, whatever its kind.
				b.setAlias(o, d.in[0])
			}
		case netlist.FuncAnd, netlist.FuncNand:
			b.simplifyAndOr(o, o.fn == netlist.FuncNand, false)
		case netlist.FuncOr, netlist.FuncNor:
			b.simplifyAndOr(o, o.fn == netlist.FuncNor, true)
		case netlist.FuncXor, netlist.FuncXnor:
			b.simplifyXor(o)
		case netlist.FuncMux2:
			if v, ok := b.isConst(o.in[2]); ok {
				if v {
					b.setAlias(o, o.in[1])
				} else {
					b.setAlias(o, o.in[0])
				}
			} else if o.in[0] == o.in[1] {
				b.setAlias(o, o.in[0])
			}
		case netlist.FuncAOI21:
			b.simplifyAOI(o)
		case netlist.FuncOAI21:
			b.simplifyOAI(o)
		}
		if !o.dead {
			b.kind[o.out] = irKindOp
			b.def[o.out] = int32(i)
		}
	}
}

// defOf returns the surviving op producing net n, or nil.
func (b *irBuilder) defOf(n int32) *irOp {
	if b.kind[n] != irKindOp {
		return nil
	}
	return &b.ops[b.def[n]]
}

// simplifyAndOr folds an AND/NAND (identity=1, absorbing=0) or OR/NOR
// (identity=0, absorbing=1) op: identity inputs and duplicates drop out,
// an absorbing input decides the op, and a single survivor degrades the op
// to a copy or an inverter.
func (b *irBuilder) simplifyAndOr(o *irOp, inverted, isOr bool) {
	kept := o.in[:0]
	for j := int8(0); j < o.nin; j++ {
		in := o.in[j]
		if v, ok := b.isConst(in); ok {
			if v == isOr { // absorbing element
				b.setConst(o, isOr != inverted)
				return
			}
			continue // identity element
		}
		dup := false
		for _, k := range kept {
			if k == in {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, in)
		}
	}
	switch len(kept) {
	case 0: // all inputs were the identity constant
		b.setConst(o, isOr == inverted)
	case 1:
		if inverted {
			o.fn, o.nin = netlist.FuncInv, 1
		} else {
			b.setAlias(o, kept[0])
		}
	default:
		o.nin = int8(len(kept))
	}
}

// simplifyXor folds an XOR/XNOR op: constant inputs contribute parity,
// XNOR is XOR with one extra inversion, and 0/1 surviving inputs collapse
// to a constant, copy or inverter.
func (b *irBuilder) simplifyXor(o *irOp) {
	invert := o.fn == netlist.FuncXnor
	kept := o.in[:0]
	for j := int8(0); j < o.nin; j++ {
		in := o.in[j]
		if v, ok := b.isConst(in); ok {
			invert = invert != v
			continue
		}
		kept = append(kept, in)
	}
	switch len(kept) {
	case 0:
		b.setConst(o, invert)
	case 1:
		if invert {
			o.fn, o.nin = netlist.FuncInv, 1
			o.in[0] = kept[0]
		} else {
			b.setAlias(o, kept[0])
		}
	default:
		if invert {
			o.fn = netlist.FuncXnor
		} else {
			o.fn = netlist.FuncXor
		}
		o.nin = 2
	}
}

// simplifyAOI folds constants in AOI21: out = !((a&b) | c).
func (b *irBuilder) simplifyAOI(o *irOp) {
	a, bn, c := o.in[0], o.in[1], o.in[2]
	if v, ok := b.isConst(c); ok {
		if v {
			b.setConst(o, false)
			return
		}
		o.fn, o.nin = netlist.FuncNand, 2 // !((a&b)|0) = !(a&b)
		o.in[0], o.in[1] = a, bn
		b.simplifyAndOr(o, true, false)
		return
	}
	for k := 0; k < 2; k++ {
		if v, ok := b.isConst(o.in[k]); ok {
			other := o.in[1-k]
			if v { // !((1&x)|c) = !(x|c)
				o.fn, o.nin = netlist.FuncNor, 2
				o.in[0], o.in[1] = other, c
				b.simplifyAndOr(o, true, true)
			} else { // !((0&x)|c) = !c
				o.fn, o.nin = netlist.FuncInv, 1
				o.in[0] = c
			}
			return
		}
	}
}

// simplifyOAI folds constants in OAI21: out = !((a|b) & c).
func (b *irBuilder) simplifyOAI(o *irOp) {
	a, bn, c := o.in[0], o.in[1], o.in[2]
	if v, ok := b.isConst(c); ok {
		if !v {
			b.setConst(o, true)
			return
		}
		o.fn, o.nin = netlist.FuncNor, 2 // !((a|b)&1) = !(a|b)
		o.in[0], o.in[1] = a, bn
		b.simplifyAndOr(o, true, true)
		return
	}
	for k := 0; k < 2; k++ {
		if v, ok := b.isConst(o.in[k]); ok {
			other := o.in[1-k]
			if !v { // !((0|x)&c) = !(x&c)
				o.fn, o.nin = netlist.FuncNand, 2
				o.in[0], o.in[1] = other, c
				b.simplifyAndOr(o, true, false)
			} else { // !((1|x)&c) = !c
				o.fn, o.nin = netlist.FuncInv, 1
				o.in[0] = c
			}
			return
		}
	}
}

// fuse is pass 2: forward peephole fusion. Every rewrite merges an op with
// one of its producers into a single fused superop; producers that lose
// their last consumer fall to the prune pass. Processing in topological
// order lets chains fuse in one pass (AND → AO21 → AOI21).
func (b *irBuilder) fuse() {
	for i := range b.ops {
		o := &b.ops[i]
		if o.dead {
			continue
		}
		switch o.fn {
		case netlist.FuncInv:
			if d := b.defOf(o.in[0]); d != nil {
				if fn, ok := invertedForm(d.fn, d.nin); ok {
					b.fused++
					o.fn, o.nin, o.in = fn, d.nin, d.in
				}
			}
		case netlist.FuncAnd, netlist.FuncOr:
			if o.nin == 2 {
				b.fuseBinary(o)
			}
		case netlist.FuncXor, netlist.FuncXnor:
			// An inverted XOR operand flips the parity for free.
			for j := int8(0); j < 2; j++ {
				if d := b.defOf(o.in[j]); d != nil && d.fn == netlist.FuncInv {
					b.fused++
					o.in[j] = d.in[0]
					if o.fn == netlist.FuncXor {
						o.fn = netlist.FuncXnor
					} else {
						o.fn = netlist.FuncXor
					}
				}
			}
		}
	}
}

// invertedForm returns the op that computes the inversion of fn, for the
// INV-absorption rewrites, when one exists at the given width.
func invertedForm(fn netlist.Func, nin int8) (netlist.Func, bool) {
	switch fn {
	case netlist.FuncAnd:
		return netlist.FuncNand, true
	case netlist.FuncNand:
		return netlist.FuncAnd, true
	case netlist.FuncOr:
		return netlist.FuncNor, true
	case netlist.FuncNor:
		return netlist.FuncOr, true
	case netlist.FuncXor:
		return netlist.FuncXnor, true
	case netlist.FuncXnor:
		return netlist.FuncXor, true
	case fnAO21:
		return netlist.FuncAOI21, true
	case fnOA21:
		return netlist.FuncOAI21, true
	case netlist.FuncAOI21:
		return fnAO21, true
	case netlist.FuncOAI21:
		return fnOA21, true
	}
	return 0, false
}

// fuseBinary rewrites a 2-input AND/OR whose operands invite fusion:
// an AND/OR producer folds into AO21/OA21 (the and-or chains the ISSUE
// names), and inverted operands fold into and-not/or-not superops or, with
// both operands inverted, De Morgan into a NOR/NAND of the sources.
func (b *irBuilder) fuseBinary(o *irOp) {
	isOr := o.fn == netlist.FuncOr
	d0, d1 := b.defOf(o.in[0]), b.defOf(o.in[1])
	inner := netlist.FuncAnd
	if isOr {
		inner = netlist.FuncOr
	}
	// OR(AND(a,b), c) → AO21; AND(OR(a,b), c) → OA21. Prefer the first
	// operand; either works, only one can be absorbed.
	for k, d := range [2]*irOp{d0, d1} {
		if d != nil && d.fn != inner && (d.fn == netlist.FuncAnd || d.fn == netlist.FuncOr) && d.nin == 2 {
			b.fused++
			c := o.in[1-k]
			o.in[0], o.in[1], o.in[2] = d.in[0], d.in[1], c
			o.nin = 3
			if isOr {
				o.fn = fnAO21
			} else {
				o.fn = fnOA21
			}
			return
		}
	}
	inv0 := d0 != nil && d0.fn == netlist.FuncInv
	inv1 := d1 != nil && d1.fn == netlist.FuncInv
	switch {
	case inv0 && inv1: // De Morgan: ^a&^b = ^(a|b), ^a|^b = ^(a&b)
		b.fused++
		o.in[0], o.in[1] = d0.in[0], d1.in[0]
		if isOr {
			o.fn = netlist.FuncNand
		} else {
			o.fn = netlist.FuncNor
		}
	case inv0:
		b.fused++
		o.in[0], o.in[1] = o.in[1], d0.in[0]
		o.fn = notSecond(isOr)
	case inv1:
		b.fused++
		o.in[1] = d1.in[0]
		o.fn = notSecond(isOr)
	}
}

func notSecond(isOr bool) netlist.Func {
	if isOr {
		return fnOrN
	}
	return fnAndN
}

// prune is pass 3: dead-fanout elimination. The live roots are the kept
// output nets and every flip-flop's D pin; one reverse sweep over the
// topologically ordered ops marks the complete input cone.
func (b *irBuilder) prune(keepOutputs []int) {
	liveNet := make([]bool, b.p.nets)
	mark := func(n int32) { liveNet[b.resolve(n)] = true }
	if keepOutputs == nil {
		for _, n := range b.p.outputNets {
			mark(n)
		}
	} else {
		for _, port := range keepOutputs {
			mark(b.p.outputNets[port])
		}
	}
	for i := range b.p.ffs {
		mark(b.p.ffs[i].d)
	}
	for i := len(b.ops) - 1; i >= 0; i-- {
		o := &b.ops[i]
		if o.dead || !liveNet[o.out] {
			continue
		}
		o.live = true
		for j := int8(0); j < o.nin; j++ {
			mark(o.in[j])
		}
	}
}

// buildKernel is pass 4 plus emission: liveness-based slot allocation over
// the surviving ops, then bytecode. See kernel.go for the artifact.
func (b *irBuilder) buildKernel() (*Kernel, error) {
	p := b.p
	const unallocated = int32(-1)
	slotOfNet := make([]int32, p.nets)
	for i := range slotOfNet {
		slotOfNet[i] = unallocated
	}

	// Fixed slots: the two constants, every primary input port (kept even
	// when its fanout was pruned, so SetInput stays valid), every FF Q.
	nextSlot := int32(0)
	alloc := func() int32 { s := nextSlot; nextSlot++; return s }
	const0 := alloc()
	const1 := alloc()
	for _, n := range p.inputNets {
		if slotOfNet[n] == unallocated {
			slotOfNet[n] = alloc()
		}
	}
	for i := range p.ffs {
		q := p.ffs[i].q
		if slotOfNet[q] == unallocated {
			slotOfNet[q] = alloc()
		}
	}

	// slotOf maps a canonical net to its slot; constants share the two
	// dedicated slots.
	slotOf := func(n int32) (int32, error) {
		switch b.kind[n] {
		case irKindC0:
			return const0, nil
		case irKindC1:
			return const1, nil
		}
		if s := slotOfNet[n]; s != unallocated {
			return s, nil
		}
		return 0, fmt.Errorf("sim: kernel: net %d read before any definition", n)
	}

	// Liveness: the last op position reading each temp. Roots (FF D pins,
	// kept outputs — prune marked their cones) must survive the whole pass
	// for Commit and output reads; flag them never-free.
	live := make([]*irOp, 0, len(b.ops))
	for i := range b.ops {
		if b.ops[i].live {
			live = append(live, &b.ops[i])
		}
	}
	lastUse := make([]int32, p.nets)
	rooted := make([]bool, p.nets)
	for i := range lastUse {
		lastUse[i] = -1
	}
	for pos, o := range live {
		for j := int8(0); j < o.nin; j++ {
			lastUse[o.in[j]] = int32(pos)
		}
	}
	for i := range p.ffs {
		rooted[b.resolve(p.ffs[i].d)] = true
	}
	for _, n := range p.outputNets {
		rooted[b.resolve(n)] = true
	}

	k := &Kernel{
		p:      p,
		code:   make([]kinstr, 0, len(live)),
		inSlot: make([]int32, len(p.inputNets)),
		ffQ:    make([]int32, len(p.ffs)),
		ffD:    make([]int32, len(p.ffs)),
		ffInit: make([]bool, len(p.ffs)),
		const0: const0,
		const1: const1,
	}
	var free []int32
	for pos, o := range live {
		code, err := encodeOp(o)
		if err != nil {
			return nil, err
		}
		var ops [4]int32
		for j := int8(0); j < o.nin; j++ {
			s, err := slotOf(o.in[j])
			if err != nil {
				return nil, err
			}
			ops[j] = s
		}
		// Free operand slots dying at this op before allocating the
		// destination, so in-place evaluation (dst = one of the operands)
		// is the common case — every kernel op reads all operands of a
		// word before writing that word, which makes aliasing safe.
		for j := int8(0); j < o.nin; j++ {
			n := o.in[j]
			if b.kind[n] == irKindOp && !rooted[n] && lastUse[n] == int32(pos) &&
				slotOfNet[n] != unallocated {
				free = append(free, slotOfNet[n])
				slotOfNet[n] = unallocated
			}
		}
		var dst int32
		if len(free) > 0 {
			dst = free[len(free)-1]
			free = free[:len(free)-1]
		} else {
			dst = alloc()
		}
		slotOfNet[o.out] = dst
		k.code = append(k.code, kinstr{
			op: code, dst: dst,
			a: ops[0], b: ops[1], c: ops[2], d: ops[3],
		})
	}

	for i := range p.ffs {
		k.ffQ[i] = slotOfNet[p.ffs[i].q]
		k.ffInit[i] = p.ffs[i].init
		s, err := slotOf(b.resolve(p.ffs[i].d))
		if err != nil {
			return nil, err
		}
		k.ffD[i] = s
	}
	ffOfQ := make(map[int32]int, len(p.ffs))
	for i, q := range k.ffQ {
		ffOfQ[q] = i
	}
	k.staged = make([]bool, len(p.ffs))
	for i, d := range k.ffD {
		j, ok := ffOfQ[d]
		k.staged[i] = ok && j != i
	}
	k.outSlot = make([]int32, len(p.outputNets))
	for i, n := range p.outputNets {
		cn := b.resolve(n)
		if b.kind[cn] == irKindOp && slotOfNet[cn] == unallocated {
			k.outSlot[i] = -1 // pruned output port
			continue
		}
		s, err := slotOf(cn)
		if err != nil {
			k.outSlot[i] = -1
			continue
		}
		k.outSlot[i] = s
	}
	for i, n := range p.inputNets {
		k.inSlot[i] = slotOfNet[n]
	}
	k.slots = int(nextSlot)

	folded := 0
	for i := range b.ops {
		if b.ops[i].dead {
			folded++
		}
	}
	k.stats = KernelStats{
		ProgramOps: len(p.ops),
		KernelOps:  len(k.code),
		Folded:     folded,
		Fused:      b.fused,
		Pruned:     len(p.ops) - folded - len(k.code),
		Slots:      k.slots,
	}
	return k, nil
}

// encodeOp maps a surviving IR op to its kernel opcode.
func encodeOp(o *irOp) (kOp, error) {
	switch o.fn {
	case netlist.FuncBuf:
		return kBuf, nil
	case netlist.FuncInv:
		return kInv, nil
	case netlist.FuncAnd:
		return kAnd2 + kOp(o.nin-2), nil
	case netlist.FuncOr:
		return kOr2 + kOp(o.nin-2), nil
	case netlist.FuncNand:
		return kNand2 + kOp(o.nin-2), nil
	case netlist.FuncNor:
		return kNor2 + kOp(o.nin-2), nil
	case netlist.FuncXor:
		return kXor2, nil
	case netlist.FuncXnor:
		return kXnor2, nil
	case netlist.FuncMux2:
		return kMux2, nil
	case netlist.FuncAOI21:
		return kAOI21, nil
	case netlist.FuncOAI21:
		return kOAI21, nil
	case fnAO21:
		return kAO21, nil
	case fnOA21:
		return kOA21, nil
	case fnAndN:
		return kAndN, nil
	case fnOrN:
		return kOrN, nil
	}
	return 0, fmt.Errorf("sim: kernel: no opcode for %v/%d", o.fn, o.nin)
}

// BuildKernel compiles a program into a fused-op bytecode kernel. The
// kernel is immutable and safe for concurrent use by any number of
// KernelEngine instances.
func BuildKernel(p *Program, cfg KernelConfig) (*Kernel, error) {
	for _, port := range cfg.KeepOutputs {
		if port < 0 || port >= len(p.outputNets) {
			return nil, fmt.Errorf("sim: kernel: kept output port %d of %d", port, len(p.outputNets))
		}
	}
	b := newIR(p)
	b.simplify()
	b.fuse()
	b.prune(cfg.KeepOutputs)
	return b.buildKernel()
}
