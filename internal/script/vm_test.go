package script

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// diffRun executes src on both engines with the same folded program
// and fails the test on any observable divergence: result, error
// string, console output, or step count. It returns the interpreter's
// outcome.
func diffRun(t *testing.T, src string, maxSteps int) (Value, error) {
	t.Helper()
	prog, perr := Parse(src)
	if perr != nil {
		t.Fatalf("Parse(%q): %v", src, perr)
	}
	folded := Fold(prog)

	ic, vc := &Console{}, &Console{}
	ip := &Interp{MaxSteps: maxSteps}
	iv, ierr := ip.Run(folded, StdEnv(ic))
	vm := &VM{MaxSteps: maxSteps}
	vv, verr := vm.Run(Compile(folded), StdEnv(vc))

	if (ierr == nil) != (verr == nil) {
		t.Fatalf("%q: error disagreement: interp %v, vm %v", src, ierr, verr)
	}
	if ierr != nil && ierr.Error() != verr.Error() {
		t.Fatalf("%q: error text diverges:\n  interp: %v\n  vm:     %v", src, ierr, verr)
	}
	if ierr == nil && (ToString(iv) != ToString(vv) || TypeOf(iv) != TypeOf(vv)) {
		t.Fatalf("%q: results diverge: interp %v (%s), vm %v (%s)",
			src, iv, TypeOf(iv), vv, TypeOf(vv))
	}
	if il, vl := ic.Lines(), vc.Lines(); strings.Join(il, "\n") != strings.Join(vl, "\n") {
		t.Fatalf("%q: console diverges: interp %v, vm %v", src, il, vl)
	}
	if ip.Steps() != vm.Steps() {
		t.Fatalf("%q: step counts diverge: interp %d, vm %d", src, ip.Steps(), vm.Steps())
	}
	return iv, ierr
}

func TestVMMatchesInterpOnErrors(t *testing.T) {
	cases := []string{
		`undefined_var;`,
		`null.prop;`,
		`var x = 1; x();`,
		`"a" - 1;`,
		`var o = {}; o.missing();`,
		`-"str";`,
		`"a" < 1;`,
		`({}) < 1;`,
		`var a = []; a[-1] = 1;`,
		`null[0];`,
		`1 . x;`,
		`var a = [1]; a["x"];`,
		`x += 1;`,
		`break;`,
		`continue;`,
		`function f() { break; } f();`,
		`console.log = 1;`,
		`var o = {}; o.x.y;`,
	}
	for _, src := range cases {
		if _, err := diffRun(t, src, 0); err == nil {
			t.Errorf("%s: want error", src)
		}
	}
}

func TestVMMatchesInterpOnPrograms(t *testing.T) {
	cases := []string{
		// The interpreter quirk where break escapes a function body
		// into the caller's loop must be preserved.
		`function f() { break; } var n = 0; while (true) { n += 1; f(); } n;`,
		`function f() { continue; } var n = 0; for (var i = 0; i < 3; i++) { f(); n += 9; } n;`,
		// Top-level return is tolerated.
		`var x = 4; return x * 2;`,
		// Compound assignment ticks twice; loops with all three target shapes.
		`var o = {n: 0}; var a = [0]; var x = 0;
		 for (var i = 0; i < 5; i++) { o.n += i; a[0] += i; x += i; }
		 o.n + a[0] + x;`,
		// Short-circuit values (not booleans) and ternaries.
		`var a = 0 || "x"; var b = 1 && null; var c = "" && "y"; a + "," + b + "," + c;`,
		// Closures capturing loop scopes.
		`var fs = []; for (var i = 0; i < 3; i++) { fs.push(function() { return i; }); }
		 fs[0]() + "," + fs[1]();`,
		// arguments object, missing params, extra args.
		`function f(a, b) { return arguments.length + ":" + (b == null); } f(1, 2, 3) + f(1);`,
		// Host-free attack-shaped probes: everything undefined is an error
		// the attempt harness swallows identically on both engines.
		`var ok1 = attempt(function() { return document.cookie; });
		 var ok2 = attempt(function() { return 2 + 2; });
		 "" + ok1 + ok2;`,
		// Nested functions, recursion, typeof on everything.
		`function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
		 typeof fib + ":" + fib(12);`,
		// String methods and indexing.
		`var s = "Hello, World"; s.toUpperCase() + s.substring(7) + s[0] + s.split(",").length;`,
		// Object stringification is key-sorted in both engines.
		`var o = {b: 2, a: 1, c: [1, {d: null}]}; "" + o;`,
		// Equality corners, including the function-comparison case that
		// must not panic.
		`"" + (log == log) + (null == null) + (1 == "1") + ({} == {});`,
		// console output interleaving.
		`for (var i = 0; i < 3; i++) { log("line", i); console.log("c" + i); }`,
		// new-expression through a native constructor is exercised in
		// browser tests; here via a non-function error path.
		`var ok = attempt(function() { return new missing(); }); "" + ok;`,
	}
	for _, src := range cases {
		diffRun(t, src, 0)
	}
}

func TestVMStepBudget(t *testing.T) {
	vm := &VM{MaxSteps: 1000}
	_, err := vm.RunSource(`while (true) { }`, StdEnv(&Console{}))
	if !errors.Is(err, ErrTooManySteps) {
		t.Errorf("err = %v, want ErrTooManySteps", err)
	}
	if vm.Steps() == 0 {
		t.Error("Steps() = 0 after a budgeted run")
	}
}

// TestNativeCallbackChargesFuel is the regression test for the
// MaxScriptSteps accounting fix: a native function that re-enters
// script (here recursively, native → script → native → ...) must burn
// the caller's budget and terminate with ErrTooManySteps instead of
// recursing forever inside one "step".
func TestNativeCallbackChargesFuel(t *testing.T) {
	src := `function f(g) { return reenter(g); } reenter(f);`
	mk := func() *Env {
		env := StdEnv(&Console{})
		env.Define("reenter", Func("reenter", func(ctx *Ctx, args []Value) (Value, error) {
			if len(args) == 0 {
				return nil, nil
			}
			return ctx.Call(args[0], args...)
		}))
		return env
	}
	ip := &Interp{MaxSteps: 2000}
	if _, err := ip.RunSource(src, mk()); !errors.Is(err, ErrTooManySteps) {
		t.Errorf("interp: err = %v, want ErrTooManySteps", err)
	}
	vm := &VM{MaxSteps: 2000}
	if _, err := vm.RunSource(src, mk()); !errors.Is(err, ErrTooManySteps) {
		t.Errorf("vm: err = %v, want ErrTooManySteps", err)
	}
}

// TestAttemptCannotSwallowFuelExhaustion: the attempt() probe shares
// the engine's budget and must propagate its exhaustion rather than
// reporting the callback as an ordinary failure.
func TestAttemptCannotSwallowFuelExhaustion(t *testing.T) {
	src := `attempt(function() { while (true) { } });`
	ip := &Interp{MaxSteps: 500}
	if _, err := ip.RunSource(src, StdEnv(&Console{})); !errors.Is(err, ErrTooManySteps) {
		t.Errorf("interp: err = %v, want ErrTooManySteps", err)
	}
	vm := &VM{MaxSteps: 500}
	if _, err := vm.RunSource(src, StdEnv(&Console{})); !errors.Is(err, ErrTooManySteps) {
		t.Errorf("vm: err = %v, want ErrTooManySteps", err)
	}
}

func TestModuleInstall(t *testing.T) {
	calls := 0
	env := NewEnv()
	err := Install(env,
		Module{Name: "a", Install: func(e *Env) error { calls++; e.Define("x", float64(1)); return nil }},
		Module{Name: "b", Install: func(e *Env) error { calls++; return errors.New("boom") }},
		Module{Name: "c", Install: func(e *Env) error { calls++; return nil }},
	)
	if err == nil || !strings.Contains(err.Error(), "install b") {
		t.Fatalf("err = %v, want install b failure", err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want install to stop at first failure", calls)
	}
	if v, ok := env.Get("x"); !ok || !Equals(v, float64(1)) {
		t.Errorf("x = %v, %v", v, ok)
	}
}

// TestFuncErrorBridging: a Go error returned from a Func becomes a
// named script exception that attempt() observes as failure, with the
// cause still reachable via errors.As.
func TestFuncErrorBridging(t *testing.T) {
	sentinel := errors.New("denied by policy")
	mk := func() *Env {
		env := StdEnv(&Console{})
		env.Define("guarded", Func("guarded", func(ctx *Ctx, args []Value) (Value, error) {
			return nil, sentinel
		}))
		return env
	}
	for name, runOne := range map[string]func(string, *Env) (Value, error){
		"interp": func(src string, env *Env) (Value, error) { return (&Interp{}).RunSource(src, env) },
		"vm":     func(src string, env *Env) (Value, error) { return (&VM{}).RunSource(src, env) },
	} {
		_, err := runOne(`guarded();`, mk())
		if err == nil || !errors.Is(err, sentinel) {
			t.Errorf("%s: err = %v, want wrapped sentinel", name, err)
		}
		var re *RuntimeError
		if !errors.As(err, &re) || re.Msg != "guarded" {
			t.Errorf("%s: err = %v, want RuntimeError named after the Func", name, err)
		}
		v, err := runOne(`attempt(guarded) ? "ran" : "blocked";`, mk())
		if err != nil || !Equals(v, "blocked") {
			t.Errorf("%s: attempt over bridged error = %v, %v", name, v, err)
		}
	}
}

func TestCompileCache(t *testing.T) {
	src := `var cache_probe_xyzzy = 1; cache_probe_xyzzy + 41;`
	h0, m0 := CompileCacheStats()
	c1, err := CompileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CompileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("second CompileCached returned a different program")
	}
	h1, m1 := CompileCacheStats()
	if h1 <= h0 || m1 <= m0 {
		t.Errorf("stats did not advance: hits %d→%d misses %d→%d", h0, h1, m0, m1)
	}
	v, err := (&VM{}).Run(c1, StdEnv(&Console{}))
	if err != nil || !Equals(v, float64(42)) {
		t.Errorf("cached program run = %v, %v", v, err)
	}
	// Parse errors are returned, not cached as programs.
	if _, err := CompileCached(`var;`); err == nil {
		t.Error("want parse error")
	}
}

// TestCompiledReusableAcrossRuns: one Compiled, many VMs and envs.
func TestCompiledReusableAcrossRuns(t *testing.T) {
	c, err := CompileSource(`var n = 0; for (var i = 0; i < 10; i++) { n += i; } n;`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		v, err := (&VM{}).Run(c, StdEnv(&Console{}))
		if err != nil || !Equals(v, float64(45)) {
			t.Fatalf("run %d = %v, %v", i, v, err)
		}
	}
}

func TestVMFunctionValues(t *testing.T) {
	v, err := (&VM{}).RunSource(`var f = function(a) { return a + 1; }; typeof f + ":" + ("" + f) + ":" + f(1);`, StdEnv(&Console{}))
	if err != nil || !Equals(v, "function:[function]:2") {
		t.Errorf("got %v, %v", v, err)
	}
}

// TestVMCallsInterpClosure: a host can hand the VM a closure captured
// by the tree-walker; the VM lowers it on the fly.
func TestVMCallsInterpClosure(t *testing.T) {
	env := StdEnv(&Console{})
	ip := &Interp{}
	if _, err := ip.RunSource(`function twice(x) { return x * 2; }`, env); err != nil {
		t.Fatal(err)
	}
	v, err := (&VM{}).RunSource(`twice(21);`, env)
	if err != nil || !Equals(v, float64(42)) {
		t.Errorf("got %v, %v", v, err)
	}
}

func TestFoldPreservesSemantics(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{`1 + 2 * 3;`, float64(7)},
		{`"a" + "b" + 1;`, "ab1"},
		{`true && false || 3;`, float64(3)},
		{`!0;`, true},
		{`-(2 + 3);`, float64(-5)},
		{`typeof "x";`, "string"},
		{`1 < 2 ? "y" : "n";`, "y"},
		{`1 / 0;`, math.Inf(1)},
	}
	for _, tt := range cases {
		v, err := diffRun(t, tt.src, 0)
		if err != nil || !Equals(v, tt.want) {
			t.Errorf("%s = %v, %v; want %v", tt.src, v, err, tt.want)
		}
	}
	// Folding must not pre-trigger runtime errors.
	if _, err := diffRun(t, `"a" - 1;`, 0); err == nil {
		t.Error(`"a" - 1 must still error at runtime`)
	}
}

// TestEqualsUncomparable: comparing function values must return false,
// not panic (regression for the interface-comparison panic).
func TestEqualsUncomparable(t *testing.T) {
	nf := CtxFunc(func(*Ctx, []Value) (Value, error) { return nil, nil })
	if Equals(nf, nf) {
		t.Error("distinct evaluations of uncomparable values must compare false")
	}
	if got := run(t, `log == log;`); !Equals(got, false) {
		t.Errorf("log == log = %v", got)
	}
}

// TestToStringCycleGuard: self-referential structures render without
// overflowing the stack.
func TestToStringCycleGuard(t *testing.T) {
	a := &Array{}
	a.Elems = append(a.Elems, a)
	if got := ToString(a); !strings.Contains(got, "...") {
		t.Errorf("cyclic array ToString = %q", got)
	}
}
