package script

import (
	"errors"
	"math"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// The standard library is organised as Modules (module.go): console,
// math, string, and util. Hosts install them with Install, or use the
// StdEnv convenience that installs the full set. All natives here are
// built with Func, the CtxFunc constructor.

// Console collects script log output (console.log / log builtin). It
// is safe for concurrent use.
type Console struct {
	mu    sync.Mutex
	lines []string
}

// Log appends a line.
func (c *Console) Log(line string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines = append(c.lines, line)
}

// Lines returns a copy of the logged lines.
func (c *Console) Lines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.lines))
	copy(out, c.lines)
	return out
}

// consoleHost exposes console.log to scripts.
type consoleHost struct {
	c   *Console
	log CtxFunc
}

var _ HostObject = (*consoleHost)(nil)

func (h *consoleHost) HostName() string { return "Console" }

func (h *consoleHost) HostGet(name string) (Value, error) {
	if name == "log" {
		return h.log, nil
	}
	return nil, nil
}

func (h *consoleHost) HostSet(name string, v Value) error {
	return errors.New("console is read-only")
}

func logFunc(c *Console) CtxFunc {
	return Func("log", func(_ *Ctx, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = ToString(a)
		}
		c.Log(strings.Join(parts, " "))
		return nil, nil
	})
}

// ConsoleModule binds console (a host object) and the bare log alias,
// both writing to c.
func ConsoleModule(c *Console) Module {
	return Module{Name: "console", Install: func(env *Env) error {
		log := logFunc(c)
		env.Define("console", &consoleHost{c: c, log: log})
		env.Define("log", log)
		return nil
	}}
}

// The env-independent natives are built once at package init:
// environments are constructed per script execution, so Install cost
// is on the hot path and should be map inserts, not closure builds.
var (
	mathMembers = map[string]Value{
		"floor": num1("Math.floor", math.Floor),
		"ceil":  num1("Math.ceil", math.Ceil),
		"abs":   num1("Math.abs", math.Abs),
		"max":   numFold("Math.max", math.Inf(-1), math.Max),
		"min":   numFold("Math.min", math.Inf(1), math.Min),
	}

	stringFn = Func("String", func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		return ToString(args[0]), nil
	})

	numberFn = Func("Number", func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return float64(0), nil
		}
		switch v := args[0].(type) {
		case float64:
			return numValue(v), nil
		case string:
			n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return math.NaN(), nil
			}
			return numValue(n), nil
		case bool:
			if v {
				return float64(1), nil
			}
			return float64(0), nil
		default:
			return math.NaN(), nil
		}
	})

	parseIntFn = Func("parseInt", func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return math.NaN(), nil
		}
		s := strings.TrimSpace(ToString(args[0]))
		end := 0
		for end < len(s) && (s[end] >= '0' && s[end] <= '9' || (end == 0 && (s[end] == '-' || s[end] == '+'))) {
			end++
		}
		n, err := strconv.ParseInt(s[:end], 10, 64)
		if err != nil {
			return math.NaN(), nil
		}
		return numValue(float64(n)), nil
	})

	isNaNFn = Func("isNaN", func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return true, nil
		}
		n, ok := args[0].(float64)
		return !ok || math.IsNaN(n), nil
	})

	encodeURIFn = Func("encodeURIComponent", func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		return url.QueryEscape(ToString(args[0])), nil
	})

	decodeURIFn = Func("decodeURIComponent", func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return "", nil
		}
		s, err := url.QueryUnescape(ToString(args[0]))
		if err != nil {
			return ToString(args[0]), nil
		}
		return s, nil
	})

	attemptFn = Func("attempt", func(ctx *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return false, nil
		}
		_, err := ctx.Call(args[0], args[1:]...)
		if err != nil && errors.Is(err, ErrTooManySteps) {
			// Fuel exhaustion is the engine's verdict, not the
			// probe's: attempt must not swallow it.
			return nil, err
		}
		return err == nil, nil
	})
)

// MathModule binds the Math object (floor, ceil, abs, max, min). The
// object itself is fresh per environment — scripts may overwrite its
// members — but the member functions are shared.
func MathModule() Module {
	return Module{Name: "math", Install: func(env *Env) error {
		props := make(map[string]Value, len(mathMembers))
		for k, v := range mathMembers {
			props[k] = v
		}
		env.Define("Math", &Object{Props: props})
		return nil
	}}
}

// StringModule binds the conversion and encoding builtins: String,
// Number, parseInt, isNaN, encodeURIComponent, decodeURIComponent.
func StringModule() Module {
	return Module{Name: "string", Install: func(env *Env) error {
		env.Define("String", stringFn)
		env.Define("Number", numberFn)
		env.Define("parseInt", parseIntFn)
		env.Define("isNaN", isNaNFn)
		env.Define("encodeURIComponent", encodeURIFn)
		env.Define("decodeURIComponent", decodeURIFn)
		return nil
	}}
}

// UtilModule binds attempt(fn, args...): run fn swallowing any error,
// returning whether it succeeded. Attack scripts use it to probe
// multiple vectors in one run even when the monitor denies the earlier
// ones. The callback runs through Ctx.Call, so its body charges the
// calling engine's step budget — a looping callback cannot escape
// MaxSteps by hiding inside a native call.
func UtilModule() Module {
	return Module{Name: "util", Install: func(env *Env) error {
		env.Define("attempt", attemptFn)
		return nil
	}}
}

// StdModules is the standard library every script environment gets.
func StdModules(console *Console) []Module {
	return []Module{ConsoleModule(console), MathModule(), StringModule(), UtilModule()}
}

// StdEnv builds the base environment every script gets: console plus
// the pure builtins. The browser adds document, window, and
// XMLHttpRequest bindings on top, bound to the principal's security
// context.
func StdEnv(console *Console) *Env {
	env := NewEnv()
	if err := Install(env, StdModules(console)...); err != nil {
		// The standard modules never fail to install.
		panic("script: stdlib install: " + err.Error())
	}
	return env
}

func num1(name string, f func(float64) float64) CtxFunc {
	return Func(name, func(_ *Ctx, args []Value) (Value, error) {
		if len(args) == 0 {
			return math.NaN(), nil
		}
		n, ok := args[0].(float64)
		if !ok {
			return math.NaN(), nil
		}
		return numValue(f(n)), nil
	})
}

func numFold(name string, init float64, f func(a, b float64) float64) CtxFunc {
	return Func(name, func(_ *Ctx, args []Value) (Value, error) {
		acc := init
		for _, a := range args {
			n, ok := a.(float64)
			if !ok {
				return math.NaN(), nil
			}
			acc = f(acc, n)
		}
		return numValue(acc), nil
	})
}
