package script

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// run executes source on BOTH engines — the tree-walking interpreter
// and the compiled VM — asserts they agree on the result, console
// output, and step count, and returns the interpreter's value. Every
// table-driven semantics test in this package is therefore a
// differential test for free.
func run(t *testing.T, src string) Value {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("run(%q): %v", src, err)
	}
	folded := Fold(prog)

	ic := &Console{}
	ip := &Interp{}
	iv, ierr := ip.Run(folded, StdEnv(ic))
	if ierr != nil {
		t.Fatalf("run(%q): %v", src, ierr)
	}

	vc := &Console{}
	vm := &VM{}
	vv, verr := vm.Run(Compile(folded), StdEnv(vc))
	if verr != nil {
		t.Fatalf("run(%q): vm: %v (interp succeeded)", src, verr)
	}
	if ToString(iv) != ToString(vv) || TypeOf(iv) != TypeOf(vv) {
		t.Fatalf("run(%q): engines disagree: interp %v (%s), vm %v (%s)",
			src, iv, TypeOf(iv), vv, TypeOf(vv))
	}
	if il, vl := ic.Lines(), vc.Lines(); strings.Join(il, "\n") != strings.Join(vl, "\n") {
		t.Fatalf("run(%q): console diverges: interp %v, vm %v", src, il, vl)
	}
	if ip.Steps() != vm.Steps() {
		t.Fatalf("run(%q): step counts diverge: interp %d, vm %d", src, ip.Steps(), vm.Steps())
	}
	return iv
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		src  string
		want Value
	}{
		{"1 + 2 * 3;", float64(7)},
		{"(1 + 2) * 3;", float64(9)},
		{"10 / 4;", float64(2.5)},
		{"7 % 3;", float64(1)},
		{"-5 + 2;", float64(-3)},
		{"1 < 2;", true},
		{"2 <= 2;", true},
		{"3 > 4;", false},
		{"1 == 1;", true},
		{"1 != 2;", true},
		{"1 === 1;", true},
		{"1 !== 1;", false},
		{`"a" + "b";`, "ab"},
		{`"n=" + 42;`, "n=42"},
		{`"a" < "b";`, true},
		{"true && false;", false},
		{"true || false;", true},
		{"!true;", false},
		{"null == null;", true},
		{`1 == "1";`, false}, // no coercion
		{"1 ? 2 : 3;", float64(2)},
		{"0 ? 2 : 3;", float64(3)},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); !Equals(got, tt.want) {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestVariablesAndScope(t *testing.T) {
	if got := run(t, "var x = 1; var y = x + 2; y;"); !Equals(got, float64(3)) {
		t.Errorf("got %v", got)
	}
	// Multiple declarators.
	if got := run(t, "var a = 1, b = 2; a + b;"); !Equals(got, float64(3)) {
		t.Errorf("got %v", got)
	}
	// Block scoping for var (simplified lexical semantics).
	got := run(t, `var x = 1; if (true) { var x = 2; } x;`)
	if !Equals(got, float64(1)) {
		t.Errorf("inner var must shadow, got %v", got)
	}
	// Assignment reaches the outer variable.
	got = run(t, `var x = 1; if (true) { x = 2; } x;`)
	if !Equals(got, float64(2)) {
		t.Errorf("assignment must mutate outer, got %v", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
var total = 0;
for (var i = 0; i < 10; i++) {
  if (i % 2 == 0) { continue; }
  if (i > 7) { break; }
  total += i;
}
total;`
	if got := run(t, src); !Equals(got, float64(1+3+5+7)) {
		t.Errorf("got %v", got)
	}
	src = `var n = 0; while (n < 5) { n = n + 1; } n;`
	if got := run(t, src); !Equals(got, float64(5)) {
		t.Errorf("got %v", got)
	}
	src = `var r = ""; if (false) { r = "a"; } else if (true) { r = "b"; } else { r = "c"; } r;`
	if got := run(t, src); !Equals(got, "b") {
		t.Errorf("got %v", got)
	}
}

func TestFunctionsAndClosures(t *testing.T) {
	src := `
function makeCounter() {
  var n = 0;
  return function() { n = n + 1; return n; };
}
var c = makeCounter();
c(); c(); c();`
	if got := run(t, src); !Equals(got, float64(3)) {
		t.Errorf("closure counter = %v", got)
	}
	src = `function add(a, b) { return a + b; } add(2, 3);`
	if got := run(t, src); !Equals(got, float64(5)) {
		t.Errorf("got %v", got)
	}
	// Missing args are null; extra args available via arguments.
	src = `function f(a) { return arguments.length; } f(1, 2, 3);`
	if got := run(t, src); !Equals(got, float64(3)) {
		t.Errorf("arguments.length = %v", got)
	}
	src = `function f(a, b) { return b == null; } f(1);`
	if got := run(t, src); !Equals(got, true) {
		t.Errorf("missing arg = %v", got)
	}
	// Recursion.
	src = `function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } fib(10);`
	if got := run(t, src); !Equals(got, float64(55)) {
		t.Errorf("fib(10) = %v", got)
	}
}

func TestObjectsAndArrays(t *testing.T) {
	src := `var o = {a: 1, "b": 2}; o.c = o.a + o["b"]; o.c;`
	if got := run(t, src); !Equals(got, float64(3)) {
		t.Errorf("got %v", got)
	}
	src = `var a = [1, 2, 3]; a.push(4); a[0] + a[3] + a.length;`
	if got := run(t, src); !Equals(got, float64(9)) {
		t.Errorf("got %v", got)
	}
	src = `var a = [1,2,3]; a.join("-");`
	if got := run(t, src); !Equals(got, "1-2-3") {
		t.Errorf("got %v", got)
	}
	src = `var a = []; a[2] = 9; a.length;`
	if got := run(t, src); !Equals(got, float64(3)) {
		t.Errorf("sparse assign length = %v", got)
	}
}

func TestStringMethods(t *testing.T) {
	tests := []struct {
		src  string
		want Value
	}{
		{`"hello".length;`, float64(5)},
		{`"hello".indexOf("ll");`, float64(2)},
		{`"hello".indexOf("z");`, float64(-1)},
		{`"hello".substring(1, 3);`, "el"},
		{`"hello".toUpperCase();`, "HELLO"},
		{`"HeLLo".toLowerCase();`, "hello"},
		{`"a,b,c".split(",").length;`, float64(3)},
		{`"aaa".replace("a", "b");`, "baa"},
		{`"abc".charAt(1);`, "b"},
		{`"abc"[1];`, "b"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); !Equals(got, tt.want) {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestBuiltins(t *testing.T) {
	tests := []struct {
		src  string
		want Value
	}{
		{`String(42);`, "42"},
		{`Number("3.5");`, float64(3.5)},
		{`parseInt("42abc");`, float64(42)},
		{`isNaN(Number("zzz"));`, true},
		{`encodeURIComponent("a b&c");`, "a+b%26c"},
		{`Math.floor(3.7);`, float64(3)},
		{`Math.max(1, 5, 3);`, float64(5)},
		{`Math.min(4, 2);`, float64(2)},
		{`Math.abs(-7);`, float64(7)},
		{`typeof "s";`, "string"},
		{`typeof 1;`, "number"},
		{`typeof null;`, "null"},
		{`typeof {};`, "object"},
		{`typeof function(){};`, "function"},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); !Equals(got, tt.want) {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestConsoleCapture(t *testing.T) {
	console := &Console{}
	ip := &Interp{}
	_, err := ip.RunSource(`log("hello", 42); console.log("second");`, StdEnv(console))
	if err != nil {
		t.Fatal(err)
	}
	lines := console.Lines()
	if len(lines) != 2 || lines[0] != "hello 42" || lines[1] != "second" {
		t.Errorf("lines = %v", lines)
	}
}

func TestAttemptSwallowsErrors(t *testing.T) {
	src := `
var ok1 = attempt(function() { return undefined_variable; });
var ok2 = attempt(function() { return 1; });
[ok1, ok2].join(",");`
	if got := run(t, src); !Equals(got, "false,true") {
		t.Errorf("got %v", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	ip := &Interp{}
	cases := []string{
		`undefined_var;`,
		`null.prop;`,
		`var x = 1; x();`,
		`"a" - 1;`,
		`var o = {}; o.missing();`,
	}
	for _, src := range cases {
		if _, err := ip.RunSource(src, StdEnv(&Console{})); err == nil {
			t.Errorf("%s: want error", src)
		} else {
			var re *RuntimeError
			if !errors.As(err, &re) {
				t.Errorf("%s: err %T not RuntimeError", src, err)
			}
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		`var;`,
		`if (true {`,
		`function (){}`,
		`1 +;`,
		`"unterminated`,
		`var x = @;`,
		`1 = 2;`,
		`{a: }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q): err %T not SyntaxError", src, err)
			}
		}
	}
}

func TestStepBudget(t *testing.T) {
	ip := &Interp{MaxSteps: 1000}
	_, err := ip.RunSource(`while (true) { }`, StdEnv(&Console{}))
	if !errors.Is(err, ErrTooManySteps) {
		t.Errorf("err = %v, want ErrTooManySteps", err)
	}
}

func TestComments(t *testing.T) {
	src := `
// line comment
var x = 1; /* block
comment */ var y = 2;
x + y;`
	if got := run(t, src); !Equals(got, float64(3)) {
		t.Errorf("got %v", got)
	}
}

func TestNewExpr(t *testing.T) {
	env := StdEnv(&Console{})
	env.Define("Thing", CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
		o := NewObject()
		if len(args) > 0 {
			o.Props["x"] = args[0]
		}
		return o, nil
	}))
	ip := &Interp{}
	v, err := ip.RunSource(`var t = new Thing(7); t.x;`, env)
	if err != nil {
		t.Fatal(err)
	}
	if !Equals(v, float64(7)) {
		t.Errorf("got %v", v)
	}
	// new without parens.
	v, err = ip.RunSource(`var t = new Thing; typeof t;`, env)
	if err != nil {
		t.Fatal(err)
	}
	if !Equals(v, "object") {
		t.Errorf("got %v", v)
	}
}

func TestCompoundAssignment(t *testing.T) {
	tests := []struct {
		src  string
		want Value
	}{
		{`var x = 5; x += 3; x;`, float64(8)},
		{`var x = 5; x -= 3; x;`, float64(2)},
		{`var x = 5; x *= 3; x;`, float64(15)},
		{`var x = 6; x /= 3; x;`, float64(2)},
		{`var o = {n: 1}; o.n += 2; o.n;`, float64(3)},
		{`var a = [1]; a[0] += 9; a[0];`, float64(10)},
		{`var s = "a"; s += "b"; s;`, "ab"},
		{`var i = 0; i++; i++; i;`, float64(2)},
		{`var i = 5; i--; i;`, float64(4)},
	}
	for _, tt := range tests {
		if got := run(t, tt.src); !Equals(got, tt.want) {
			t.Errorf("%s = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEscapesInStrings(t *testing.T) {
	if got := run(t, `"a\nb".length;`); !Equals(got, float64(3)) {
		t.Errorf("got %v", got)
	}
	if got := run(t, `'it\'s';`); !Equals(got, "it's") {
		t.Errorf("got %v", got)
	}
	if got := run(t, `"tab\there";`); !Equals(got, "tab\there") {
		t.Errorf("got %v", got)
	}
}

func TestToString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{nil, "null"},
		{float64(42), "42"},
		{float64(2.5), "2.5"},
		{true, "true"},
		{"s", "s"},
		{&Array{Elems: []Value{float64(1), "a"}}, "1,a"},
	}
	for _, tt := range tests {
		if got := ToString(tt.v); got != tt.want {
			t.Errorf("ToString(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
	o := NewObject()
	o.Props["b"] = float64(2)
	o.Props["a"] = float64(1)
	if got := ToString(o); got != "{a: 1, b: 2}" {
		t.Errorf("object ToString = %q", got)
	}
}

// Property: the parser never panics on arbitrary input.
func TestParseNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: every program either errors or terminates within the step
// budget — generated from grammar fragments to get interesting shapes.
func TestInterpreterTerminates(t *testing.T) {
	pieces := []string{
		"var x = 1;", "x = x + 1;", "if (x > 0) { x = 0; }",
		"for (var i = 0; i < 3; i++) { x += i; }",
		"while (x < 2) { x += 1; }",
		"function f(a) { return a; } f(x);",
		"var s = \"q\"; s += s;",
	}
	f := func(seed []uint8) bool {
		var b strings.Builder
		b.WriteString("var x = 0;")
		for _, s := range seed {
			b.WriteString(pieces[int(s)%len(pieces)])
		}
		ip := &Interp{MaxSteps: 100000}
		_, _ = ip.RunSource(b.String(), StdEnv(&Console{}))
		return true // termination is the property; errors are fine
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHostObjectIntegration(t *testing.T) {
	// A minimal host object: property bag with an uppercase method.
	env := StdEnv(&Console{})
	env.Define("host", &testHost{props: map[string]Value{"x": float64(1)}})
	ip := &Interp{}
	v, err := ip.RunSource(`host.x = 5; host.up("ab") + host.x;`, env)
	if err != nil {
		t.Fatal(err)
	}
	if !Equals(v, "AB5") {
		t.Errorf("got %v", v)
	}
	if _, err := ip.RunSource(`host.forbidden = 1;`, env); err == nil {
		t.Error("forbidden set must error")
	}
}

type testHost struct{ props map[string]Value }

func (h *testHost) HostName() string { return "TestHost" }

func (h *testHost) HostGet(name string) (Value, error) {
	if name == "up" {
		return CtxFunc(func(_ *Ctx, args []Value) (Value, error) {
			return strings.ToUpper(ToString(args[0])), nil
		}), nil
	}
	return h.props[name], nil
}

func (h *testHost) HostSet(name string, v Value) error {
	if name == "forbidden" {
		return errors.New("nope")
	}
	h.props[name] = v
	return nil
}
