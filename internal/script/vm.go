package script

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// This file is the execution half of the compiled engine (compile.go
// is the lowering half). Compiled programs run on a VM whose operand
// representation is the unboxed vmval struct below, so arithmetic,
// comparisons, and variable traffic inside the VM never round-trip
// through interface boxing the way the tree-walking interpreter's
// Value (any) does. Values are boxed only at host boundaries: Env
// bindings, *Object/*Array element storage, native calls, and
// HostGet/HostSet.
//
// Variables live in slot arrays resolved at compile time, not maps: an
// identifier compiles to (scope hops, slot index) candidates, and a
// slot that is still unbound (its declaration has not executed yet)
// falls through to the next candidate and finally the host *Env chain,
// which is exactly the walk Env.Get performs in the interpreter.
//
// The interpreter's semantics are the spec. Every tick site, error
// message, and evaluation-order decision below mirrors eval.go
// exactly; FuzzCompileMatchesEval holds the two engines to identical
// results, errors, console output, and step counts.

// vkind tags a vmval.
type vkind uint8

const (
	vNull vkind = iota
	vNum
	vBool
	vStr
	vRef
	// vUnbound marks a declared-but-not-yet-executed slot. It never
	// escapes the variable accessors.
	vUnbound
)

// vmval is the VM's unboxed operand: numbers and booleans live in num
// (booleans as 0/1), strings in str, and everything else behind ref.
type vmval struct {
	kind vkind
	num  float64
	str  string
	ref  any
}

func vnum(f float64) vmval { return vmval{kind: vNum, num: f} }

func vbool(b bool) vmval {
	if b {
		return vmval{kind: vBool, num: 1}
	}
	return vmval{kind: vBool}
}

func vstr(s string) vmval { return vmval{kind: vStr, str: s} }

func vref(r any) vmval { return vmval{kind: vRef, ref: r} }

// smallNums holds pre-boxed interface values for the small integers
// that dominate host-boundary traffic (loop counters, property
// increments): converting a float64 to an interface allocates, and a
// tight counter loop would otherwise pay one heap box per store.
var smallNums = func() [257]Value {
	var t [257]Value
	for i := range t {
		t[i] = float64(i)
	}
	return t
}()

// numValue boxes a float64 for the host boundary through the
// small-integer intern table (natives returning loop-sized integers
// would otherwise heap-box every return).
func numValue(f float64) Value {
	if n := int(f); float64(n) == f && n >= 0 && n < len(smallNums) && !math.Signbit(f) {
		return smallNums[n]
	}
	return f
}

// box converts to the interface representation shared with hosts.
func box(v vmval) Value {
	switch v.kind {
	case vNull:
		return nil
	case vNum:
		// math.Signbit excludes -0.0, which must round-trip intact.
		if n := int(v.num); float64(n) == v.num && n >= 0 && n < len(smallNums) && !math.Signbit(v.num) {
			return smallNums[n]
		}
		return v.num
	case vBool:
		return v.num != 0
	case vStr:
		// A string that arrived through unbox (or a compile-time
		// constant) carries its original interface in ref: returning it
		// avoids re-boxing the string header on every host crossing.
		if v.ref != nil {
			return v.ref
		}
		return v.str
	default:
		return v.ref
	}
}

// unbox converts a host value into the VM representation.
func unbox(v Value) vmval {
	switch x := v.(type) {
	case nil:
		return vmval{}
	case float64:
		return vmval{kind: vNum, num: x}
	case bool:
		return vbool(x)
	case string:
		return vmval{kind: vStr, str: x, ref: v}
	default:
		return vmval{kind: vRef, ref: v}
	}
}

func boxArgs(args []vmval) []Value {
	out := make([]Value, len(args))
	for i, a := range args {
		out[i] = box(a)
	}
	return out
}

// truthy mirrors Truthy.
func truthy(v vmval) bool {
	switch v.kind {
	case vNull:
		return false
	case vBool:
		return v.num != 0
	case vNum:
		return v.num != 0 && !math.IsNaN(v.num)
	case vStr:
		return v.str != ""
	default:
		return true
	}
}

// typeOfV mirrors TypeOf.
func typeOfV(v vmval) string {
	switch v.kind {
	case vNull:
		return "null"
	case vNum:
		return "number"
	case vBool:
		return "boolean"
	case vStr:
		return "string"
	default:
		return TypeOf(v.ref)
	}
}

// vmToString mirrors ToString without boxing scalars.
// smallIntStr interns the rendered forms of small integers: loop
// counters flowing into string concatenation dominate number
// stringification, and numString re-formats on every call.
var smallIntStr = func() [257]string {
	var t [257]string
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

func vmToString(v vmval) string {
	switch v.kind {
	case vNull:
		return "null"
	case vStr:
		return v.str
	case vBool:
		return strconv.FormatBool(v.num != 0)
	case vNum:
		if n := int(v.num); float64(n) == v.num && n >= 0 && n < len(smallIntStr) {
			return smallIntStr[n]
		}
		return numString(v.num)
	default:
		return ToString(v.ref)
	}
}

// vmEquals mirrors Equals.
func vmEquals(l, r vmval) bool {
	if l.kind == vNull || r.kind == vNull {
		return l.kind == vNull && r.kind == vNull
	}
	switch l.kind {
	case vNum:
		return r.kind == vNum && l.num == r.num
	case vStr:
		return r.kind == vStr && l.str == r.str
	case vBool:
		return r.kind == vBool && (l.num != 0) == (r.num != 0)
	default:
		return r.kind == vRef && refEquals(l.ref, r.ref)
	}
}

// scope is one frame of the VM's lexical chain: a slot array whose
// layout the compiler fixed, a parent link, and the host *Env the
// chain bottoms out in (carried on every frame so accessors reach it
// without walking). Host bindings resolve after all slot candidates,
// and undeclared assignment defines at the host root, exactly like the
// interpreter's Env.
type scope struct {
	slots  []vmval
	parent *scope
	host   *Env
	inl    [4]vmval
}

// newScope allocates a frame with n unbound slots, inheriting the host
// environment from its parent. Small frames (the common case) use the
// inline slot array to stay a single allocation.
func newScope(parent *scope, n int) *scope {
	sc := &scope{parent: parent}
	if parent != nil {
		sc.host = parent.host
	}
	if n > 0 {
		if n <= len(sc.inl) {
			sc.slots = sc.inl[:n]
		} else {
			sc.slots = make([]vmval, n)
		}
		for i := range sc.slots {
			sc.slots[i].kind = vUnbound
		}
	}
	return sc
}

// slotRef is a compile-time resolved variable candidate: the slot at
// `hops` parent links up that may hold the name once its declaration
// has executed.
type slotRef struct {
	hops int
	slot int
}

// loadVar reads a variable through its slot candidates (innermost
// first), falling through unbound slots, and finally the host chain —
// the same walk as Env.Get.
func loadVar(sc *scope, refs []slotRef, name string) (vmval, bool) {
	cur, hops := sc, 0
	for _, r := range refs {
		for hops < r.hops {
			cur = cur.parent
			hops++
		}
		if v := cur.slots[r.slot]; v.kind != vUnbound {
			return v, true
		}
	}
	if sc.host != nil {
		if v, ok := sc.host.Get(name); ok {
			return unbox(v), true
		}
	}
	return vmval{}, false
}

// storeVar writes an existing binding (slot candidates, then the host
// chain), or defines at the host root, mirroring Env.assign.
func storeVar(sc *scope, refs []slotRef, name string, v vmval) {
	cur, hops := sc, 0
	for _, r := range refs {
		for hops < r.hops {
			cur = cur.parent
			hops++
		}
		if cur.slots[r.slot].kind != vUnbound {
			cur.slots[r.slot] = v
			return
		}
	}
	hostAssign(sc.host, name, v)
}

// hostAssign writes name into the env that already binds it, or
// defines it at the root of the env chain, mirroring Env.assign —
// including the envGen bump that invalidates dynamic-read caches.
func hostAssign(env *Env, name string, v vmval) {
	envGen.Add(1)
	if hs, ok := env.lookup(name); ok {
		hs.vars[name] = box(v)
		return
	}
	root := env
	for root.parent != nil {
		root = root.parent
	}
	root.vars[name] = box(v)
}

// ctrl is the VM's control-flow channel, replacing the interpreter's
// sentinel errors on the hot path. Break/continue escaping a function
// body still convert back to the sentinel errors so loops in a caller
// observe them identically to the interpreter.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// cexpr and cstmt are compiled nodes: pre-bound closures produced once
// per program by compile.go and re-executed per run.
type cexpr func(m *machine, sc *scope) (vmval, error)

type cstmt func(m *machine, sc *scope) (vmval, ctrl, error)

// compiledBlock is a compiled statement list. numSlots is non-zero iff
// the block declares anything; if zero, it runs directly in the
// enclosing scope (observably equivalent, since nothing could ever
// bind into the skipped frame).
type compiledBlock struct {
	stmts    []cstmt
	numSlots int
}

func (b *compiledBlock) exec(m *machine, sc *scope) (vmval, ctrl, error) {
	var last vmval
	for _, st := range b.stmts {
		v, ct, err := st(m, sc)
		if err != nil {
			return vmval{}, ctrlNone, err
		}
		if ct != ctrlNone {
			return v, ct, nil
		}
		last = v
	}
	return last, ctrlNone, nil
}

func (b *compiledBlock) execChild(m *machine, sc *scope) (vmval, ctrl, error) {
	if b.numSlots > 0 {
		sc = newScope(sc, b.numSlots)
	}
	return b.exec(m, sc)
}

// compiledFunc is a lowered function body. params holds the call-frame
// slot of each parameter; argsSlot is the slot for the implicit
// `arguments` Array, or -1 when the body never references it (so the
// per-call Array and the boxing it forces are skipped).
type compiledFunc struct {
	params   []int
	argsSlot int
	numSlots int
	body     compiledBlock
	// noCapture marks bodies containing no function literals: the call
	// frame provably outlives every reference to it, so the machine
	// recycles it through its scope pool instead of allocating.
	noCapture bool
}

// vmClosure is a compiled function bound to its captured scope.
type vmClosure struct {
	fn *compiledFunc
	sc *scope
}

// VM executes compiled programs. The zero value is ready to use;
// MaxSteps is the fuel budget (0 means the default shared with
// Interp).
type VM struct {
	// MaxSteps bounds execution; 0 means the default (1e6).
	MaxSteps int
	steps    int
}

// Steps reports the fuel consumed by the last Run.
func (vm *VM) Steps() int { return vm.steps }

// Run executes a compiled program against env, returning the value of
// the last expression statement like Interp.Run. A Compiled is
// immutable and may be Run concurrently by many VMs.
func (vm *VM) Run(c *Compiled, env *Env) (Value, error) {
	if vm.MaxSteps == 0 {
		vm.MaxSteps = defaultMaxSteps
	}
	if env == nil {
		env = NewEnv()
	}
	vm.steps = 0
	m := &machine{steps: &vm.steps, max: vm.MaxSteps}
	if c.dynCount > 0 {
		m.dynCache = make([]dynEnt, c.dynCount)
	}
	root := &scope{host: env}
	if n := len(c.topNames); n > 0 {
		root.slots = make([]vmval, n)
		for i := range root.slots {
			root.slots[i].kind = vUnbound
		}
	}
	v, ct, err := c.body.exec(m, root)
	// The interpreter defines top-level declarations straight into env
	// as they execute; flush the root frame so a shared env observes
	// the same bindings afterwards, including after an error.
	for i, name := range c.topNames {
		if root.slots[i].kind != vUnbound {
			env.Define(name, box(root.slots[i]))
		}
	}
	if err != nil {
		return nil, err
	}
	switch ct {
	case ctrlReturn:
		return box(v), nil // top-level return is tolerated
	case ctrlBreak:
		return nil, breakSignal{}
	case ctrlContinue:
		return nil, continueSignal{}
	}
	return box(v), nil
}

// RunSource parses, folds, compiles, and executes source in env.
func (vm *VM) RunSource(src string, env *Env) (Value, error) {
	c, err := CompileSource(src)
	if err != nil {
		return nil, err
	}
	return vm.Run(c, env)
}

// machine is one program execution: a fuel counter plus the engine
// surface native functions call back through. The counter is a pointer
// so a VM run and an interpreter that hands closures across the engine
// boundary can share one budget.
type machine struct {
	steps *int
	max   int
	// argbuf is a reusable argument stack: call sites append operand
	// values, slice off their window, and truncate after the call.
	// Nothing retains the raw window past the call (arguments and
	// native calls copy via boxArgs), so reuse is safe.
	argbuf []vmval
	// boxbuf is the same stack for boxed native-call arguments. The
	// module FFI contract is that args are only valid for the duration
	// of the call (natives copy what they keep), so the window can be
	// reused once the native returns.
	boxbuf []Value
	// pool recycles frames of noCapture functions and loops. Pooled
	// frames may pin values until the run ends; a machine lives for one
	// program execution, so that is bounded.
	pool []*scope
	// ctx is the reusable call context handed to CtxFuncs (same FFI
	// contract as args: valid only for the duration of the call). The
	// call path saves and restores line around each use, so nested
	// native calls see their own call sites.
	ctx Ctx
	// dynCache memoizes host-global reads per dynamic site (see
	// simpleOp.readDyn), validated against envGen.
	dynCache []dynEnt
}

// dynEnt is one dynamic-read cache entry. The op pointer guards
// against sites from different compilations sharing an ID.
type dynEnt struct {
	op   *simpleOp
	host *Env
	gen  uint64
	v    vmval
	ok   bool
}

// boxInto pushes boxed args onto boxbuf and returns the capped window;
// callers truncate back to base after the native returns. The cap
// keeps a native that appends to its args from clobbering the stack.
func (m *machine) boxInto(args []vmval) (bargs []Value, base int) {
	base = len(m.boxbuf)
	for _, a := range args {
		m.boxbuf = append(m.boxbuf, box(a))
	}
	return m.boxbuf[base:len(m.boxbuf):len(m.boxbuf)], base
}

// getScope returns a frame for a body that provably creates no
// closures (nothing can retain the frame past its exit), reusing a
// pooled one when available. Callers must pair it with putScope.
func (m *machine) getScope(parent *scope, n int) *scope {
	if len(m.pool) == 0 {
		return newScope(parent, n)
	}
	sc := m.pool[len(m.pool)-1]
	m.pool = m.pool[:len(m.pool)-1]
	sc.parent = parent
	sc.host = parent.host
	if n <= len(sc.inl) {
		sc.slots = sc.inl[:n]
	} else if cap(sc.slots) >= n {
		sc.slots = sc.slots[:n]
	} else {
		sc.slots = make([]vmval, n)
	}
	for i := range sc.slots {
		sc.slots[i] = vmval{kind: vUnbound}
	}
	return sc
}

func (m *machine) putScope(sc *scope) {
	sc.parent = nil
	sc.host = nil
	m.pool = append(m.pool, sc)
}

// fuelErr is the budget-exhaustion error, identical to Interp.tick's.
func fuelErr(line int) error {
	return &RuntimeError{Line: line, Msg: "infinite loop guard", Err: ErrTooManySteps}
}

// errUndefined mirrors the interpreter's unresolved-identifier error.
func errUndefined(line int, name string) error {
	return &RuntimeError{Line: line, Msg: fmt.Sprintf("undefined variable %q", name)}
}

// tick charges one execution step, identical to Interp.tick.
func (m *machine) tick(line int) error {
	*m.steps++
	if *m.steps > m.max {
		return fuelErr(line)
	}
	return nil
}

// callValue implements the engine interface for Ctx: host-facing,
// boxed signature.
func (m *machine) callValue(fn Value, args []Value, line int) (Value, error) {
	base := len(m.argbuf)
	for _, a := range args {
		m.argbuf = append(m.argbuf, unbox(a))
	}
	v, err := m.call(unbox(fn), m.argbuf[base:len(m.argbuf):len(m.argbuf)], line)
	m.argbuf = m.argbuf[:base]
	if err != nil {
		return nil, err
	}
	return box(v), nil
}

// call invokes closures and native functions, mirroring
// Interp.callValue.
func (m *machine) call(fn vmval, args []vmval, line int) (vmval, error) {
	if fn.kind == vRef {
		switch f := fn.ref.(type) {
		case *vmClosure:
			return m.callClosure(f.fn, f.sc, args)
		case CtxFunc:
			bargs, base := m.boxInto(args)
			oldLine := m.ctx.line
			m.ctx.eng, m.ctx.line = m, line
			v, err := f(&m.ctx, bargs)
			m.ctx.line = oldLine
			m.boxbuf = m.boxbuf[:base]
			if err != nil {
				var re *RuntimeError
				if errors.As(err, &re) {
					return vmval{}, err
				}
				return vmval{}, &RuntimeError{Line: line, Msg: "native call failed", Err: err}
			}
			return unbox(v), nil
		case *Closure:
			// An interpreter closure handed in by the host: lower it on
			// the fly and overlay its captured environment.
			return m.callClosure(compileFuncLit(f.Fn, nil), &scope{host: f.Env}, args)
		}
	}
	return vmval{}, &RuntimeError{Line: line, Msg: fmt.Sprintf("%s is not a function", typeOfV(fn))}
}

func (m *machine) callClosure(cf *compiledFunc, parent *scope, args []vmval) (vmval, error) {
	var sc *scope
	pooled := cf.noCapture && parent != nil
	if pooled {
		sc = m.getScope(parent, cf.numSlots)
	} else {
		sc = newScope(parent, cf.numSlots)
	}
	for i, slot := range cf.params {
		if i < len(args) {
			sc.slots[slot] = args[i]
		} else {
			sc.slots[slot] = vmval{}
		}
	}
	if cf.argsSlot >= 0 {
		sc.slots[cf.argsSlot] = vref(&Array{Elems: boxArgs(args)})
	}
	v, ct, err := cf.body.exec(m, sc)
	if pooled {
		m.putScope(sc)
	}
	if err != nil {
		return vmval{}, err
	}
	switch ct {
	case ctrlReturn:
		return v, nil
	case ctrlBreak:
		// break/continue escaping a function body surface as the same
		// sentinel errors the interpreter produces, so an enclosing
		// loop in the caller treats them identically.
		return vmval{}, breakSignal{}
	case ctrlContinue:
		return vmval{}, continueSignal{}
	}
	return vmval{}, nil
}

// binaryOp mirrors the non-short-circuit half of Interp.evalBinary.
// The compiler specializes the hot operators (binFn); this generic
// form serves the folder and the specialized closures' slow paths.
func binaryOp(op string, l, r vmval, line int) (vmval, error) {
	switch op {
	case "+":
		if l.kind == vStr {
			return vstr(l.str + vmToString(r)), nil
		}
		if r.kind == vStr {
			return vstr(vmToString(l) + r.str), nil
		}
		if l.kind == vNum && r.kind == vNum {
			return vnum(l.num + r.num), nil
		}
		return vstr(vmToString(l) + vmToString(r)), nil
	case "-", "*", "/", "%":
		if l.kind != vNum || r.kind != vNum {
			return vmval{}, &RuntimeError{Line: line, Msg: fmt.Sprintf("operator %s needs numbers", op)}
		}
		switch op {
		case "-":
			return vnum(l.num - r.num), nil
		case "*":
			return vnum(l.num * r.num), nil
		case "/":
			return vnum(l.num / r.num), nil
		default:
			return vnum(fmod(l.num, r.num)), nil
		}
	case "==":
		return vbool(vmEquals(l, r)), nil
	case "!=":
		return vbool(!vmEquals(l, r)), nil
	case "<", ">", "<=", ">=":
		if l.kind == vStr {
			if r.kind != vStr {
				return vmval{}, &RuntimeError{Line: line, Msg: "comparing string with non-string"}
			}
			return vbool(compareOrdered(op, strings.Compare(l.str, r.str))), nil
		}
		if l.kind != vNum || r.kind != vNum {
			return vmval{}, &RuntimeError{Line: line, Msg: "comparison needs numbers or strings"}
		}
		switch {
		case l.num < r.num:
			return vbool(compareOrdered(op, -1)), nil
		case l.num > r.num:
			return vbool(compareOrdered(op, 1)), nil
		default:
			return vbool(compareOrdered(op, 0)), nil
		}
	}
	return vmval{}, &RuntimeError{Line: line, Msg: "unknown operator " + op}
}

// getMemberV mirrors Interp.getMember.
// arrayPushV and arrayJoinV are the unboxed forms of the Array
// methods in arrayMember, used by fused method calls to skip the
// per-access bound-closure allocation and []Value boxing. They must
// stay observably identical to their boxed twins.
func arrayPushV(r *Array, args []vmval) vmval {
	for _, a := range args {
		r.Elems = append(r.Elems, box(a))
	}
	return vnum(float64(len(r.Elems)))
}

func arrayJoinV(r *Array, args []vmval) vmval {
	sep := ","
	if len(args) > 0 {
		sep = vmToString(args[0])
	}
	parts := make([]string, len(r.Elems))
	for i, el := range r.Elems {
		parts[i] = ToString(el)
	}
	return vstr(strings.Join(parts, sep))
}

func getMemberV(recv vmval, name string, line int) (vmval, error) {
	switch recv.kind {
	case vStr:
		return unbox(stringMember(recv.str, name)), nil
	case vNull:
		return vmval{}, &RuntimeError{Line: line, Msg: fmt.Sprintf("cannot read %q of null", name)}
	case vRef:
		switch r := recv.ref.(type) {
		case HostObject:
			v, err := r.HostGet(name)
			if err != nil {
				return vmval{}, &RuntimeError{Line: line, Msg: fmt.Sprintf("%s.%s", r.HostName(), name), Err: err}
			}
			return unbox(v), nil
		case *Object:
			return unbox(r.Props[name]), nil
		case *Array:
			return unbox(arrayMember(r, name)), nil
		}
	}
	return vmval{}, &RuntimeError{Line: line, Msg: fmt.Sprintf("cannot read %q of %s", name, typeOfV(recv))}
}

// setMemberV mirrors Interp.setMember.
func setMemberV(recv vmval, name string, v vmval, line int) error {
	if recv.kind == vRef {
		switch r := recv.ref.(type) {
		case HostObject:
			if err := r.HostSet(name, box(v)); err != nil {
				return &RuntimeError{Line: line, Msg: fmt.Sprintf("%s.%s=", r.HostName(), name), Err: err}
			}
			return nil
		case *Object:
			r.Props[name] = box(v)
			return nil
		}
	}
	if recv.kind == vNull {
		return &RuntimeError{Line: line, Msg: fmt.Sprintf("cannot set %q of null", name)}
	}
	return &RuntimeError{Line: line, Msg: fmt.Sprintf("cannot set %q of %s", name, typeOfV(recv))}
}

// getIndexV mirrors Interp.getIndex.
func getIndexV(recv, idx vmval, line int) (vmval, error) {
	if recv.kind == vRef {
		switch r := recv.ref.(type) {
		case *Array:
			if idx.kind != vNum {
				return vmval{}, &RuntimeError{Line: line, Msg: "array index must be a number"}
			}
			i := int(idx.num)
			if i < 0 || i >= len(r.Elems) {
				return vmval{}, nil
			}
			return unbox(r.Elems[i]), nil
		case *Object:
			return unbox(r.Props[vmToString(idx)]), nil
		case HostObject:
			return getMemberV(recv, vmToString(idx), line)
		}
	}
	if recv.kind == vStr {
		if idx.kind != vNum {
			return unbox(stringMember(recv.str, vmToString(idx))), nil
		}
		i := int(idx.num)
		if i < 0 || i >= len(recv.str) {
			return vmval{}, nil
		}
		return vstr(string(recv.str[i])), nil
	}
	return vmval{}, &RuntimeError{Line: line, Msg: "cannot index " + typeOfV(recv)}
}

// setIndexV mirrors Interp.setIndex.
func setIndexV(recv, idx, v vmval, line int) error {
	if recv.kind == vRef {
		switch r := recv.ref.(type) {
		case *Array:
			if idx.kind != vNum {
				return &RuntimeError{Line: line, Msg: "array index must be a number"}
			}
			i := int(idx.num)
			if i < 0 {
				return &RuntimeError{Line: line, Msg: "negative array index"}
			}
			for len(r.Elems) <= i {
				r.Elems = append(r.Elems, nil)
			}
			r.Elems[i] = box(v)
			return nil
		case *Object:
			r.Props[vmToString(idx)] = box(v)
			return nil
		case HostObject:
			return setMemberV(recv, vmToString(idx), v, line)
		}
	}
	return &RuntimeError{Line: line, Msg: "cannot index-assign " + typeOfV(recv)}
}
