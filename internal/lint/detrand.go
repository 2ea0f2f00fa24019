package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// DetRand forbids nondeterministic value sources inside simulation
// code. The simulator's headline guarantee — byte-identical results
// for identical (Spec, Seed) inputs, across goroutine counts, across
// processes and across hosts — dies the moment a simulation path
// consults the wall clock, an ambiently-seeded generator or the host
// environment, so those sources are banned by machine rather than by
// review:
//
//   - time.Now / time.Since / time.Until and the timer constructors
//     (After, Tick, NewTimer, NewTicker, AfterFunc): simulated time is
//     sim.Clock timeticks, never the host clock;
//   - math/rand and math/rand/v2: all randomness must flow through
//     internal/rng, which is explicitly seeded from Params;
//   - crypto/rand: cryptographic entropy is nondeterministic by
//     definition;
//   - os.Getenv / os.LookupEnv / os.Environ / os.Hostname: a value
//     read from the host is the same in every process on one machine,
//     so a seed or decision derived from it passes the cross-process
//     determinism tests there and still differs on the next host.
//
// The analyzer covers every package; a site where the host clock is
// legitimate carries a //lint:detrand justification.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "forbid wall-clock and ambient randomness in simulation code",
	Run:  runDetRand,
}

// forbiddenTimeFuncs are the "time" package members that read or
// react to the host clock. Pure conversions (time.Duration,
// time.Unix) and constants stay legal.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Sleep": true,
}

// forbiddenOSFuncs are the "os" package members that read the host's
// environment or identity.
var forbiddenOSFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "Hostname": true,
}

// forbiddenRandPkgs are import paths banned outright in simulation
// code.
var forbiddenRandPkgs = map[string]string{
	"math/rand":    "ambiently-seeded randomness; use internal/rng with an explicit seed",
	"math/rand/v2": "ambiently-seeded randomness; use internal/rng with an explicit seed",
	"crypto/rand":  "nondeterministic entropy; use internal/rng with an explicit seed",
}

func runDetRand(pass *Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, bad := forbiddenRandPkgs[path]; bad {
				pass.Reportf(imp.Pos(), "import of %s in simulation code: %s", path, why)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.ObjectOf(sel.Sel)
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if _, isFunc := obj.(*types.Func); !isFunc {
				return true
			}
			switch path := obj.Pkg().Path(); {
			case path == "time" && forbiddenTimeFuncs[sel.Sel.Name]:
				pass.Reportf(sel.Pos(),
					"time.%s in simulation code: simulated time is sim.Clock timeticks, not the host clock",
					sel.Sel.Name)
			case path == "os" && forbiddenOSFuncs[sel.Sel.Name]:
				pass.Reportf(sel.Pos(),
					"os.%s in simulation code: a run depends only on its Params, not on the host environment",
					sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
