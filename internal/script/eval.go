package script

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Value is a runtime value: nil (null), float64, string, bool,
// *Object, *Array, *Closure, CtxFunc, or a HostObject.
type Value any

// Object is a script object (property map).
type Object struct {
	Props map[string]Value
}

// NewObject returns an empty object.
func NewObject() *Object { return &Object{Props: map[string]Value{}} }

// Array is a script array.
type Array struct {
	Elems []Value
}

// Closure is a user-defined function with its captured environment.
type Closure struct {
	Fn  *FuncLit
	Env *Env
}

// HostObject is a browser-provided object whose property reads,
// writes, and method calls run native Go code — this is where DOM,
// cookie, and XHR mediation hooks in.
type HostObject interface {
	// HostGet reads a property; it may return a CtxFunc for
	// methods.
	HostGet(name string) (Value, error)
	// HostSet writes a property.
	HostSet(name string, v Value) error
	// HostName names the object for error messages and typeof.
	HostName() string
}

// RuntimeError is a script execution failure. Unwrap exposes the
// underlying cause so security denials (e.g. *dom.DeniedError) remain
// detectable with errors.As through the script boundary.
type RuntimeError struct {
	Line int
	Msg  string
	Err  error // optional cause
}

// Error implements error.
func (e *RuntimeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("script: line %d: %s: %v", e.Line, e.Msg, e.Err)
	}
	return fmt.Sprintf("script: line %d: %s", e.Line, e.Msg)
}

// Unwrap exposes the cause.
func (e *RuntimeError) Unwrap() error { return e.Err }

// ErrTooManySteps reports a script exceeding its step budget.
var ErrTooManySteps = errors.New("script: step budget exceeded")

// control-flow signals, implemented as sentinel errors inside the
// evaluator and never escaping Run.
type returnSignal struct{ v Value }
type breakSignal struct{}
type continueSignal struct{}

func (returnSignal) Error() string   { return "return outside function" }
func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }

// envGen counts environment mutations globally. The VM's dynamic-read
// caches (see compile.go) treat any Define or assignment anywhere as a
// potential invalidation — coarse, but mutations are rare next to the
// host-global reads the caches serve.
var envGen atomic.Uint64

// Env is a lexical scope.
type Env struct {
	vars   map[string]Value
	parent *Env
}

// NewEnv returns a fresh root environment. The map is pre-sized for a
// standard-library install so the per-script env build doesn't rehash.
func NewEnv() *Env { return &Env{vars: make(map[string]Value, 16)} }

// child opens a nested scope.
func (e *Env) child() *Env { return &Env{vars: map[string]Value{}, parent: e} }

// Define binds a name in this scope.
func (e *Env) Define(name string, v Value) {
	e.vars[name] = v
	envGen.Add(1)
}

// lookup finds the scope holding name.
func (e *Env) lookup(name string) (*Env, bool) {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			return s, true
		}
	}
	return nil, false
}

// Get reads a variable.
func (e *Env) Get(name string) (Value, bool) {
	s, ok := e.lookup(name)
	if !ok {
		return nil, false
	}
	return s.vars[name], true
}

// assign writes an existing variable, or defines it at the root (JS
// global semantics for undeclared assignment).
func (e *Env) assign(name string, v Value) {
	envGen.Add(1)
	if s, ok := e.lookup(name); ok {
		s.vars[name] = v
		return
	}
	root := e
	for root.parent != nil {
		root = root.parent
	}
	root.vars[name] = v
}

// Interp executes programs against an environment.
type Interp struct {
	// MaxSteps bounds execution; 0 means the default (1e6).
	MaxSteps int
	steps    int
}

// defaultMaxSteps bounds runaway scripts.
const defaultMaxSteps = 1_000_000

// Run executes the program in env. It returns the value of the last
// expression statement, mirroring a REPL, which makes assertions in
// tests and examples convenient.
func (ip *Interp) Run(prog *Program, env *Env) (Value, error) {
	if ip.MaxSteps == 0 {
		ip.MaxSteps = defaultMaxSteps
	}
	ip.steps = 0
	v, err := ip.execBlock(prog.Body, env)
	if err != nil {
		var rs returnSignal
		if errors.As(err, &rs) {
			return rs.v, nil // top-level return is tolerated
		}
		return nil, err
	}
	return v, nil
}

// RunSource parses and executes source in env.
func (ip *Interp) RunSource(src string, env *Env) (Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return ip.Run(prog, env)
}

// tick charges one execution step.
func (ip *Interp) tick(line int) error {
	ip.steps++
	if ip.steps > ip.MaxSteps {
		return &RuntimeError{Line: line, Msg: "infinite loop guard", Err: ErrTooManySteps}
	}
	return nil
}

// Steps reports the fuel consumed by the last Run. The differential
// fuzzer asserts it matches the VM's count exactly.
func (ip *Interp) Steps() int { return ip.steps }

// execBlock runs statements, returning the last expression value.
func (ip *Interp) execBlock(body []Stmt, env *Env) (Value, error) {
	var last Value
	for _, s := range body {
		v, err := ip.exec(s, env)
		if err != nil {
			return nil, err
		}
		last = v
	}
	return last, nil
}

// exec runs one statement.
func (ip *Interp) exec(s Stmt, env *Env) (Value, error) {
	switch st := s.(type) {
	case *VarStmt:
		if err := ip.tick(st.Line); err != nil {
			return nil, err
		}
		var v Value
		if st.Init != nil {
			var err error
			v, err = ip.eval(st.Init, env)
			if err != nil {
				return nil, err
			}
		}
		env.Define(st.Name, v)
		return nil, nil
	case *VarListStmt:
		for _, d := range st.Decls {
			if _, err := ip.exec(d, env); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case *FuncDeclStmt:
		env.Define(st.Name, &Closure{Fn: st.Fn, Env: env})
		return nil, nil
	case *ExprStmt:
		return ip.eval(st.X, env)
	case *IfStmt:
		if err := ip.tick(st.Line); err != nil {
			return nil, err
		}
		cond, err := ip.eval(st.Cond, env)
		if err != nil {
			return nil, err
		}
		if Truthy(cond) {
			return ip.execBlock(st.Then, env.child())
		}
		if st.Else != nil {
			return ip.execBlock(st.Else, env.child())
		}
		return nil, nil
	case *WhileStmt:
		for {
			if err := ip.tick(st.Line); err != nil {
				return nil, err
			}
			cond, err := ip.eval(st.Cond, env)
			if err != nil {
				return nil, err
			}
			if !Truthy(cond) {
				return nil, nil
			}
			if _, err := ip.execBlock(st.Body, env.child()); err != nil {
				if errors.As(err, &breakSignal{}) {
					return nil, nil
				}
				if errors.As(err, &continueSignal{}) {
					continue
				}
				return nil, err
			}
		}
	case *ForStmt:
		scope := env.child()
		if st.Init != nil {
			if _, err := ip.exec(st.Init, scope); err != nil {
				return nil, err
			}
		}
		for {
			if err := ip.tick(st.Line); err != nil {
				return nil, err
			}
			if st.Cond != nil {
				cond, err := ip.eval(st.Cond, scope)
				if err != nil {
					return nil, err
				}
				if !Truthy(cond) {
					return nil, nil
				}
			}
			if _, err := ip.execBlock(st.Body, scope.child()); err != nil {
				if errors.As(err, &breakSignal{}) {
					return nil, nil
				}
				if !errors.As(err, &continueSignal{}) {
					return nil, err
				}
			}
			if st.Post != nil {
				if _, err := ip.exec(st.Post, scope); err != nil {
					return nil, err
				}
			}
		}
	case *ReturnStmt:
		var v Value
		if st.X != nil {
			var err error
			v, err = ip.eval(st.X, env)
			if err != nil {
				return nil, err
			}
		}
		return nil, returnSignal{v: v}
	case *BreakStmt:
		return nil, breakSignal{}
	case *ContinueStmt:
		return nil, continueSignal{}
	case *BlockStmt:
		return ip.execBlock(st.Body, env.child())
	default:
		return nil, fmt.Errorf("script: unknown statement %T", s)
	}
}

// eval evaluates one expression.
func (ip *Interp) eval(x Expr, env *Env) (Value, error) {
	switch e := x.(type) {
	case *litValue:
		return e.v, nil
	case *NumberLit:
		return e.Value, nil
	case *StringLit:
		return e.Value, nil
	case *BoolLit:
		return e.Value, nil
	case *NullLit:
		return nil, nil
	case *Ident:
		if err := ip.tick(e.Line); err != nil {
			return nil, err
		}
		v, ok := env.Get(e.Name)
		if !ok {
			return nil, &RuntimeError{Line: e.Line, Msg: fmt.Sprintf("undefined variable %q", e.Name)}
		}
		return v, nil
	case *UnaryExpr:
		v, err := ip.eval(e.X, env)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "!":
			return !Truthy(v), nil
		case "-":
			n, ok := v.(float64)
			if !ok {
				return nil, &RuntimeError{Line: e.Line, Msg: "unary - on non-number"}
			}
			return -n, nil
		case "typeof":
			return TypeOf(v), nil
		}
		return nil, &RuntimeError{Line: e.Line, Msg: "unknown unary " + e.Op}
	case *BinaryExpr:
		return ip.evalBinary(e, env)
	case *CondExpr:
		c, err := ip.eval(e.Cond, env)
		if err != nil {
			return nil, err
		}
		if Truthy(c) {
			return ip.eval(e.Then, env)
		}
		return ip.eval(e.Else, env)
	case *AssignExpr:
		return ip.evalAssign(e, env)
	case *ObjectLit:
		obj := NewObject()
		for i, k := range e.Keys {
			v, err := ip.eval(e.Values[i], env)
			if err != nil {
				return nil, err
			}
			obj.Props[k] = v
		}
		return obj, nil
	case *ArrayLit:
		arr := &Array{}
		for _, el := range e.Elems {
			v, err := ip.eval(el, env)
			if err != nil {
				return nil, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return arr, nil
	case *FuncLit:
		return &Closure{Fn: e, Env: env}, nil
	case *MemberExpr:
		if err := ip.tick(e.Line); err != nil {
			return nil, err
		}
		recv, err := ip.eval(e.X, env)
		if err != nil {
			return nil, err
		}
		return ip.getMember(recv, e.Name, e.Line)
	case *IndexExpr:
		recv, err := ip.eval(e.X, env)
		if err != nil {
			return nil, err
		}
		idx, err := ip.eval(e.Index, env)
		if err != nil {
			return nil, err
		}
		return ip.getIndex(recv, idx, e.Line)
	case *CallExpr:
		return ip.evalCall(e, env)
	case *NewExpr:
		fn, err := ip.eval(e.Fn, env)
		if err != nil {
			return nil, err
		}
		args, err := ip.evalArgs(e.Args, env)
		if err != nil {
			return nil, err
		}
		return ip.callValue(fn, args, e.Line)
	default:
		return nil, fmt.Errorf("script: unknown expression %T", x)
	}
}

// evalBinary evaluates binary operators with short-circuiting for &&
// and ||.
func (ip *Interp) evalBinary(e *BinaryExpr, env *Env) (Value, error) {
	if err := ip.tick(e.Line); err != nil {
		return nil, err
	}
	switch e.Op {
	case "&&":
		l, err := ip.eval(e.L, env)
		if err != nil {
			return nil, err
		}
		if !Truthy(l) {
			return l, nil
		}
		return ip.eval(e.R, env)
	case "||":
		l, err := ip.eval(e.L, env)
		if err != nil {
			return nil, err
		}
		if Truthy(l) {
			return l, nil
		}
		return ip.eval(e.R, env)
	}
	l, err := ip.eval(e.L, env)
	if err != nil {
		return nil, err
	}
	r, err := ip.eval(e.R, env)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case "+":
		if ls, ok := l.(string); ok {
			return ls + ToString(r), nil
		}
		if rs, ok := r.(string); ok {
			return ToString(l) + rs, nil
		}
		ln, lok := l.(float64)
		rn, rok := r.(float64)
		if lok && rok {
			return ln + rn, nil
		}
		return ToString(l) + ToString(r), nil
	case "-", "*", "/", "%":
		ln, lok := l.(float64)
		rn, rok := r.(float64)
		if !lok || !rok {
			return nil, &RuntimeError{Line: e.Line, Msg: fmt.Sprintf("operator %s needs numbers", e.Op)}
		}
		switch e.Op {
		case "-":
			return ln - rn, nil
		case "*":
			return ln * rn, nil
		case "/":
			return ln / rn, nil
		default:
			return math.Mod(ln, rn), nil
		}
	case "==":
		return Equals(l, r), nil
	case "!=":
		return !Equals(l, r), nil
	case "<", ">", "<=", ">=":
		if ls, lok := l.(string); lok {
			rs, rok := r.(string)
			if !rok {
				return nil, &RuntimeError{Line: e.Line, Msg: "comparing string with non-string"}
			}
			return compareOrdered(e.Op, strings.Compare(ls, rs)), nil
		}
		ln, lok := l.(float64)
		rn, rok := r.(float64)
		if !lok || !rok {
			return nil, &RuntimeError{Line: e.Line, Msg: "comparison needs numbers or strings"}
		}
		switch {
		case ln < rn:
			return compareOrdered(e.Op, -1), nil
		case ln > rn:
			return compareOrdered(e.Op, 1), nil
		default:
			return compareOrdered(e.Op, 0), nil
		}
	}
	return nil, &RuntimeError{Line: e.Line, Msg: "unknown operator " + e.Op}
}

func compareOrdered(op string, cmp int) bool {
	switch op {
	case "<":
		return cmp < 0
	case ">":
		return cmp > 0
	case "<=":
		return cmp <= 0
	default:
		return cmp >= 0
	}
}

// evalAssign handles =, +=, -=, *=, /= on all three target shapes.
func (ip *Interp) evalAssign(e *AssignExpr, env *Env) (Value, error) {
	if err := ip.tick(e.Line); err != nil {
		return nil, err
	}
	value, err := ip.eval(e.Value, env)
	if err != nil {
		return nil, err
	}
	apply := func(old Value) (Value, error) {
		if e.Op == "=" {
			return value, nil
		}
		bin := &BinaryExpr{Op: strings.TrimSuffix(e.Op, "="), Line: e.Line,
			L: &litValue{v: old}, R: &litValue{v: value}}
		return ip.evalBinary(bin, env)
	}
	switch t := e.Target.(type) {
	case *Ident:
		var old Value
		if e.Op != "=" {
			var ok bool
			old, ok = env.Get(t.Name)
			if !ok {
				return nil, &RuntimeError{Line: e.Line, Msg: fmt.Sprintf("undefined variable %q", t.Name)}
			}
		}
		nv, err := apply(old)
		if err != nil {
			return nil, err
		}
		env.assign(t.Name, nv)
		return nv, nil
	case *MemberExpr:
		recv, err := ip.eval(t.X, env)
		if err != nil {
			return nil, err
		}
		var old Value
		if e.Op != "=" {
			old, err = ip.getMember(recv, t.Name, e.Line)
			if err != nil {
				return nil, err
			}
		}
		nv, err := apply(old)
		if err != nil {
			return nil, err
		}
		if err := ip.setMember(recv, t.Name, nv, e.Line); err != nil {
			return nil, err
		}
		return nv, nil
	case *IndexExpr:
		recv, err := ip.eval(t.X, env)
		if err != nil {
			return nil, err
		}
		idx, err := ip.eval(t.Index, env)
		if err != nil {
			return nil, err
		}
		var old Value
		if e.Op != "=" {
			old, err = ip.getIndex(recv, idx, e.Line)
			if err != nil {
				return nil, err
			}
		}
		nv, err := apply(old)
		if err != nil {
			return nil, err
		}
		if err := ip.setIndex(recv, idx, nv, e.Line); err != nil {
			return nil, err
		}
		return nv, nil
	}
	return nil, &RuntimeError{Line: e.Line, Msg: "bad assignment target"}
}

// litValue is an internal expression wrapping an already-computed
// value, used to desugar compound assignment.
type litValue struct{ v Value }

func (*litValue) exprNode() {}

// evalCall evaluates a function or method call. Method calls on host
// objects resolve through HostGet, which typically yields a bound
// CtxFunc.
func (ip *Interp) evalCall(e *CallExpr, env *Env) (Value, error) {
	if err := ip.tick(e.Line); err != nil {
		return nil, err
	}
	fn, err := ip.eval(e.Fn, env)
	if err != nil {
		return nil, err
	}
	args, err := ip.evalArgs(e.Args, env)
	if err != nil {
		return nil, err
	}
	return ip.callValue(fn, args, e.Line)
}

func (ip *Interp) evalArgs(exprs []Expr, env *Env) ([]Value, error) {
	args := make([]Value, 0, len(exprs))
	for _, a := range exprs {
		v, err := ip.eval(a, env)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return args, nil
}

// callValue invokes closures and native functions.
func (ip *Interp) callValue(fn Value, args []Value, line int) (Value, error) {
	switch f := fn.(type) {
	case *Closure:
		scope := f.Env.child()
		for i, p := range f.Fn.Params {
			if i < len(args) {
				scope.Define(p, args[i])
			} else {
				scope.Define(p, nil)
			}
		}
		scope.Define("arguments", &Array{Elems: args})
		_, err := ip.execBlock(f.Fn.Body, scope)
		if err != nil {
			var rs returnSignal
			if errors.As(err, &rs) {
				return rs.v, nil
			}
			return nil, err
		}
		return nil, nil
	case *vmClosure:
		// A compiled closure that crossed the engine boundary (e.g. a
		// function declared by a VM run into a shared env): execute it
		// on a machine sharing this interpreter's fuel so the step
		// budget stays unified.
		max := ip.MaxSteps
		if max == 0 {
			max = defaultMaxSteps
		}
		m := &machine{steps: &ip.steps, max: max}
		vargs := make([]vmval, len(args))
		for i, a := range args {
			vargs[i] = unbox(a)
		}
		v, err := m.callClosure(f.fn, f.sc, vargs)
		if err != nil {
			return nil, err
		}
		return box(v), nil
	case CtxFunc:
		v, err := f(&Ctx{eng: ip, line: line}, args)
		if err != nil {
			var re *RuntimeError
			if errors.As(err, &re) {
				return nil, err
			}
			return nil, &RuntimeError{Line: line, Msg: "native call failed", Err: err}
		}
		return v, nil
	default:
		return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("%s is not a function", TypeOf(fn))}
	}
}

// getMember reads obj.name for every receiver shape.
func (ip *Interp) getMember(recv Value, name string, line int) (Value, error) {
	switch r := recv.(type) {
	case HostObject:
		v, err := r.HostGet(name)
		if err != nil {
			return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("%s.%s", r.HostName(), name), Err: err}
		}
		return v, nil
	case *Object:
		return r.Props[name], nil
	case *Array:
		return arrayMember(r, name), nil
	case string:
		return stringMember(r, name), nil
	case nil:
		return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("cannot read %q of null", name)}
	}
	return nil, &RuntimeError{Line: line, Msg: fmt.Sprintf("cannot read %q of %s", name, TypeOf(recv))}
}

// arrayMember implements array properties and methods; shared by the
// interpreter and the VM so both expose the same surface.
func arrayMember(r *Array, name string) Value {
	switch name {
	case "length":
		return float64(len(r.Elems))
	case "push":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			r.Elems = append(r.Elems, args...)
			return float64(len(r.Elems)), nil
		})
	case "join":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			sep := ","
			if len(args) > 0 {
				sep = ToString(args[0])
			}
			parts := make([]string, len(r.Elems))
			for i, el := range r.Elems {
				parts[i] = ToString(el)
			}
			return strings.Join(parts, sep), nil
		})
	}
	return nil
}

// stringMember implements the string methods scripts in the corpus
// use.
func stringMember(s, name string) Value {
	switch name {
	case "length":
		return float64(len(s))
	case "indexOf":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			if len(args) == 0 {
				return float64(-1), nil
			}
			return float64(strings.Index(s, ToString(args[0]))), nil
		})
	case "substring":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			start, end := 0, len(s)
			if len(args) > 0 {
				if n, ok := args[0].(float64); ok {
					start = clampIndex(int(n), len(s))
				}
			}
			if len(args) > 1 {
				if n, ok := args[1].(float64); ok {
					end = clampIndex(int(n), len(s))
				}
			}
			if start > end {
				start, end = end, start
			}
			return s[start:end], nil
		})
	case "split":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			if len(args) == 0 {
				return &Array{Elems: []Value{s}}, nil
			}
			parts := strings.Split(s, ToString(args[0]))
			arr := &Array{}
			for _, p := range parts {
				arr.Elems = append(arr.Elems, p)
			}
			return arr, nil
		})
	case "toUpperCase":
		return CtxFunc(func(*Ctx, []Value) (Value, error) { return strings.ToUpper(s), nil })
	case "toLowerCase":
		return CtxFunc(func(*Ctx, []Value) (Value, error) { return strings.ToLower(s), nil })
	case "replace":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			if len(args) < 2 {
				return s, nil
			}
			return strings.Replace(s, ToString(args[0]), ToString(args[1]), 1), nil
		})
	case "charAt":
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			i := 0
			if len(args) > 0 {
				if n, ok := args[0].(float64); ok {
					i = int(n)
				}
			}
			if i < 0 || i >= len(s) {
				return "", nil
			}
			return string(s[i]), nil
		})
	default:
		return nil
	}
}

func clampIndex(i, n int) int {
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

// setMember writes obj.name.
func (ip *Interp) setMember(recv Value, name string, v Value, line int) error {
	switch r := recv.(type) {
	case HostObject:
		if err := r.HostSet(name, v); err != nil {
			return &RuntimeError{Line: line, Msg: fmt.Sprintf("%s.%s=", r.HostName(), name), Err: err}
		}
		return nil
	case *Object:
		r.Props[name] = v
		return nil
	case nil:
		return &RuntimeError{Line: line, Msg: fmt.Sprintf("cannot set %q of null", name)}
	}
	return &RuntimeError{Line: line, Msg: fmt.Sprintf("cannot set %q of %s", name, TypeOf(recv))}
}

// getIndex reads a[i].
func (ip *Interp) getIndex(recv, idx Value, line int) (Value, error) {
	switch r := recv.(type) {
	case *Array:
		n, ok := idx.(float64)
		if !ok {
			return nil, &RuntimeError{Line: line, Msg: "array index must be a number"}
		}
		i := int(n)
		if i < 0 || i >= len(r.Elems) {
			return nil, nil
		}
		return r.Elems[i], nil
	case *Object:
		return r.Props[ToString(idx)], nil
	case string:
		n, ok := idx.(float64)
		if !ok {
			return stringMember(r, ToString(idx)), nil
		}
		i := int(n)
		if i < 0 || i >= len(r) {
			return nil, nil
		}
		return string(r[i]), nil
	case HostObject:
		return ip.getMember(recv, ToString(idx), line)
	}
	return nil, &RuntimeError{Line: line, Msg: "cannot index " + TypeOf(recv)}
}

// setIndex writes a[i].
func (ip *Interp) setIndex(recv, idx, v Value, line int) error {
	switch r := recv.(type) {
	case *Array:
		n, ok := idx.(float64)
		if !ok {
			return &RuntimeError{Line: line, Msg: "array index must be a number"}
		}
		i := int(n)
		if i < 0 {
			return &RuntimeError{Line: line, Msg: "negative array index"}
		}
		for len(r.Elems) <= i {
			r.Elems = append(r.Elems, nil)
		}
		r.Elems[i] = v
		return nil
	case *Object:
		r.Props[ToString(idx)] = v
		return nil
	case HostObject:
		return ip.setMember(recv, ToString(idx), v, line)
	}
	return &RuntimeError{Line: line, Msg: "cannot index-assign " + TypeOf(recv)}
}

// Truthy implements JavaScript-like truthiness.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	default:
		return true
	}
}

// Equals implements strict-ish equality: same dynamic type and value;
// reference equality for objects, arrays, and functions.
func Equals(l, r Value) bool {
	if l == nil || r == nil {
		return l == nil && r == nil
	}
	switch a := l.(type) {
	case float64:
		b, ok := r.(float64)
		return ok && a == b
	case string:
		b, ok := r.(string)
		return ok && a == b
	case bool:
		b, ok := r.(bool)
		return ok && a == b
	default:
		return refEquals(l, r)
	}
}

// refEquals compares reference values: identity when the dynamic types
// match and are comparable, false otherwise (comparing two function
// values yields false rather than panicking).
func refEquals(l, r Value) bool {
	lt := reflect.TypeOf(l)
	if lt != reflect.TypeOf(r) || !lt.Comparable() {
		return false
	}
	return l == r
}

// TypeOf mirrors the typeof operator.
func TypeOf(v Value) string {
	switch v.(type) {
	case nil:
		return "null"
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "boolean"
	case *Closure, CtxFunc, *vmClosure:
		return "function"
	case *Array:
		return "array"
	case *Object:
		return "object"
	case HostObject:
		return "object"
	default:
		return "unknown"
	}
}

// numString renders a number the way string concatenation does;
// shared by both engines so console output stays byte-identical.
func numString(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return strconv.FormatInt(int64(x), 10)
	}
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// maxToStringDepth bounds recursion through nested (possibly cyclic)
// arrays and objects.
const maxToStringDepth = 64

// ToString renders a value the way string concatenation does.
func ToString(v Value) string { return toStringDepth(v, 0) }

func toStringDepth(v Value, depth int) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return numString(x)
	case *Array:
		if depth >= maxToStringDepth {
			return "..."
		}
		parts := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			parts[i] = toStringDepth(el, depth+1)
		}
		return strings.Join(parts, ",")
	case *Object:
		if depth >= maxToStringDepth {
			return "..."
		}
		keys := make([]string, 0, len(x.Props))
		for k := range x.Props {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("{")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s: %s", k, toStringDepth(x.Props[k], depth+1))
		}
		b.WriteString("}")
		return b.String()
	case HostObject:
		return "[object " + x.HostName() + "]"
	case *Closure, *vmClosure:
		return "[function]"
	case CtxFunc:
		return "[native function]"
	default:
		return fmt.Sprintf("%v", v)
	}
}
