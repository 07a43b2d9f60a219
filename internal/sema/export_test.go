package sema

// Hooks for symbols_test.go, which runs over the bundled protocols and so
// is an external test: internal/protocols imports this package.

// Symbols returns the array that holds every declaration's Symbol.
func Symbols(p *Program) []Symbol { return p.symbols }

// AccessConst looks up a builtin access-change constant.
func AccessConst(name string) (AccessMode, bool) {
	m, ok := builtinAccessConsts[name]
	return m, ok
}

// BuiltinValue looks up a nullary value builtin.
func BuiltinValue(name string) (Type, Builtin, bool) {
	v, ok := builtinValues[name]
	return v.Type, v.Builtin, ok
}

// Declared returns every Symbol pointer the checker keeps on a
// declaration: each state's and routine's own, and each handler scope's.
func Declared(p *Program) []*Symbol {
	var out []*Symbol
	for _, st := range p.States {
		out = append(out, st.sym)
		out = append(out, st.paramSyms...)
		for _, h := range st.Handlers {
			out = append(out, h.scope...)
		}
	}
	for _, f := range p.Funcs {
		out = append(out, f.sym)
	}
	return out
}
