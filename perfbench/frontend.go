package main

import (
	"fmt"

	"repro/internal/lexer"
	"repro/internal/modules"
	"repro/internal/parser"
)

// probeFrontEnd times the lexer and the parser on the sources an op's front
// end parses, each in its own root span. The project's own parses happen
// inside modules.Project.Parse, which exposes no split between lexing and
// parsing, so the traced run measures the two layers by calling them once
// more on the same inputs. The probes are outside the op span: they count
// towards neither the op's wall time nor the layer shares.
func probeFrontEnd(t *tracer, c counts, files map[string]string, paths []string) error {
	var err error
	t.do("lexer", func() {
		for _, p := range paths {
			toks, lerr := lexer.New(p, files[p]).All()
			if lerr != nil {
				err = fmt.Errorf("lex %s: %w", p, lerr)
				return
			}
			c["lexer.tokens"] += float64(len(toks))
		}
	})
	if err != nil {
		return err
	}
	t.do("parser", func() {
		for _, p := range paths {
			if _, perr := parser.Parse(p, files[p]); perr != nil {
				err = fmt.Errorf("parse %s: %w", p, perr)
				return
			}
			c["parser.files"]++
		}
	})
	return err
}

// parseAll parses every listed file through the project's parse cache: the
// traced op's front end, done before the layers that would otherwise parse
// lazily so its cost lands in the modules span.
func parseAll(p *modules.Project, paths []string) error {
	for _, path := range paths {
		if _, err := p.Parse(path); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
	}
	return nil
}

// freshProject copies a project's inputs into a new Project with an empty
// parse cache, so every op starts cold.
func freshProject(p *modules.Project) *modules.Project {
	files := make(map[string]string, len(p.Files))
	for k, v := range p.Files {
		files[k] = v
	}
	return &modules.Project{
		Name:        p.Name,
		Files:       files,
		MainEntries: p.MainEntries,
		TestEntries: p.TestEntries,
		MainPrefix:  p.MainPrefix,
	}
}
