// Command dreamlint runs DReAMSim's analyzer suite (internal/lint)
// over the repository:
//
//	go run ./cmd/dreamlint ./...
//
// It loads the matched packages (type-checked against the build
// cache's export data), applies every analyzer, and prints findings
// as file:line:col: analyzer: message (or one JSON object per line
// with -json, for tooling and the CI problem matcher). The exit
// status is 1 when any unjustified finding remains, so CI can gate
// merges on a clean run. Deliberate exceptions are justified in the
// source with //lint:NAME <reason> directives — see README "Static
// analysis & invariants"; -exceptions prints the full inventory of
// them for review.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dreamsim/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "print findings as one JSON object per line")
	exceptions := flag.Bool("exceptions", false, "print the //lint: exception inventory and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: dreamlint [-list] [-run name,name] [-json] [-exceptions] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *run != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var kept []*lint.Analyzer
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "dreamlint: unknown analyzer %q\n", strings.TrimSpace(name))
				os.Exit(2)
			}
			kept = append(kept, a)
		}
		analyzers = kept
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()

	if *exceptions {
		exs := lint.Exceptions(pkgs)
		for _, ex := range exs {
			fmt.Printf("%s:%d: //lint:%s %s\n",
				relPath(cwd, ex.Pos.Filename), ex.Pos.Line, ex.Name, ex.Reason)
		}
		fmt.Fprintf(os.Stderr, "dreamlint: %d justified exception(s)\n", len(exs))
		return
	}

	diags := lint.Run(pkgs, analyzers)
	if len(patterns) != 1 || patterns[0] != "./..." {
		// A partial load hides the callers of an export: deadexport
		// flags exports that the rest of the module uses, and a
		// //lint:deadexport directive kept for such a use can read as
		// suppressing nothing.
		fmt.Fprintln(os.Stderr, "dreamlint: deadexport and unused-directive findings need the whole module (./...)")
	}
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		file := relPath(cwd, d.Pos.Filename)
		if *asJSON {
			enc.Encode(struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Col      int    `json:"col"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
			continue
		}
		pos := d.Pos
		pos.Filename = file
		fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dreamlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// relPath shortens an absolute source path to a cwd-relative one when
// the file sits under the working tree.
func relPath(cwd, filename string) string {
	if cwd == "" {
		return filename
	}
	if rel, err := filepath.Rel(cwd, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return filename
}
