package bottom

import "repro/internal/logic"

// SetInterner does nothing.
//
// Deprecated: a ground bottom clause is interned where it is compiled,
// by subsume.CompileGround, and the builder keeps no table. The method
// stays only until the benchmark harness (bench/probes.go) drops its
// call.
func (b *Builder) SetInterner(*logic.Interner) {}
