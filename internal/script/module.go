package script

import (
	"errors"
	"fmt"
)

// Module is the unit of builtin and FFI registration. A module bundles
// a named group of host bindings (console, math, the browser's DOM
// surface) behind a single Install hook, instead of env.Define calls
// sprinkled over every call site. Hosts compose environments by
// installing modules:
//
//	env := script.NewEnv()
//	if err := script.Install(env, script.StdModules(console)...); err != nil { ... }
type Module struct {
	// Name identifies the module in installation errors and docs.
	Name string
	// Install binds the module's names into env.
	Install func(env *Env) error
}

// Install installs modules into env in order, stopping at the first
// failure.
func Install(env *Env, mods ...Module) error {
	for _, m := range mods {
		if m.Install == nil {
			continue
		}
		if err := m.Install(env); err != nil {
			return fmt.Errorf("script: install %s: %w", m.Name, err)
		}
	}
	return nil
}

// engine is the part of a running evaluator a native function may use:
// both the tree-walking Interp and the compiled VM implement it, so a
// native callback charges whichever engine invoked it.
type engine interface {
	tick(line int) error
	callValue(fn Value, args []Value, line int) (Value, error)
}

// Ctx is the call context handed to a CtxFunc. It carries the invoking
// engine, so callbacks into script (Call) share the caller's step
// budget instead of running unmetered.
type Ctx struct {
	eng  engine
	line int
}

// Line reports the script line of the call site.
func (c *Ctx) Line() int { return c.line }

// Call invokes a script value (closure or native) from inside a native
// function. The callee's execution charges the calling engine's fuel,
// which is what makes MaxSteps a real bound even across native
// re-entry.
func (c *Ctx) Call(fn Value, args ...Value) (Value, error) {
	if err := c.eng.tick(c.line); err != nil {
		return nil, err
	}
	return c.eng.callValue(fn, args, c.line)
}

// Errorf builds a script exception (a *RuntimeError) at the call site.
func (c *Ctx) Errorf(format string, a ...any) error {
	return &RuntimeError{Line: c.line, Msg: fmt.Sprintf(format, a...)}
}

// CtxFunc is a context-aware native function, the one Go-function
// value type scripts can call. It receives a *Ctx, so calling back into script
// shares the engine's fuel and errors carry the call site.
type CtxFunc func(ctx *Ctx, args []Value) (Value, error)

// Func wraps a Go function as a named script value with error-as-value
// bridging: a returned Go error becomes a script exception (a
// *RuntimeError named after the function, observable to scripts via
// attempt()), and the cause stays reachable through errors.As — which
// is how security denials remain detectable across the FFI boundary.
func Func(name string, fn func(*Ctx, []Value) (Value, error)) CtxFunc {
	return func(ctx *Ctx, args []Value) (Value, error) {
		v, err := fn(ctx, args)
		if err != nil {
			var re *RuntimeError
			if errors.As(err, &re) {
				return nil, err
			}
			return nil, &RuntimeError{Line: ctx.line, Msg: name, Err: err}
		}
		return v, nil
	}
}
