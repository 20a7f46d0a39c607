package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Finding is one reported, position-resolved violation that survived
// ignore filtering.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return f.Pos.String() + ": " + f.Message + " [" + f.Analyzer + "]"
}

// ignoreDirective is the prefix of the suppression comment; the rest of
// the comment is the mandatory reason.
const ignoreDirective = "//nocvet:ignore"

// noallocDirective marks a function as part of the allocation-free hot
// path enforced by the hotpath analyzer.
const noallocDirective = "//nocvet:noalloc"

// CollectNoalloc scans every package's syntax for //nocvet:noalloc
// annotations and returns the repo-wide set keyed by FuncKey. Purely
// syntactic, so it runs once before any analyzer and covers callees in
// other packages.
func CollectNoalloc(pkgs []*Package) map[string]bool {
	set := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && hasDirective(fd.Doc, noallocDirective) {
					set[syntacticFuncKey(pkg.PkgPath, fd)] = true
				}
			}
		}
	}
	return set
}

func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// Run executes the analyzers over the packages, applies
// //nocvet:ignore filtering, and returns the surviving findings sorted
// by position. Ignore directives with an empty reason are themselves
// findings (analyzer "nocvet").
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	noalloc := CollectNoalloc(pkgs)
	var findings []Finding
	for _, pkg := range pkgs {
		var diags []Finding
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Syntax,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Noalloc:  noalloc,
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
			for _, d := range pass.diags {
				diags = append(diags, Finding{Pos: pkg.Fset.Position(d.Pos), Analyzer: a.Name, Message: d.Message})
			}
		}
		findings = append(findings, filterIgnored(pkg, diags)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings, nil
}

// lineRange is the span of source lines one ignore directive covers.
type lineRange struct {
	file     string
	from, to int
}

// filterIgnored drops findings covered by a //nocvet:ignore directive
// and appends a finding for each directive missing its reason. A
// directive covers its own line plus, when a statement or declaration
// starts on that line (trailing comment) or on the next (standalone
// comment line), the full extent of that node — so one directive can
// sanction a whole if-block or multi-line call.
func filterIgnored(pkg *Package, diags []Finding) []Finding {
	var ranges []lineRange
	var out []Finding
	for _, f := range pkg.Syntax {
		fileName := pkg.Fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(text, ignoreDirective)
				if rest != "" && !strings.HasPrefix(rest, " ") {
					continue // some other nocvet: word
				}
				line := pkg.Fset.Position(c.Pos()).Line
				if strings.TrimSpace(rest) == "" {
					out = append(out, Finding{
						Pos:      pkg.Fset.Position(c.Pos()),
						Analyzer: "nocvet",
						Message:  "//nocvet:ignore requires a reason",
					})
					continue
				}
				to := line
				if end, ok := nodeExtent(pkg.Fset, f, line); ok {
					to = end
				} else if end, ok := nodeExtent(pkg.Fset, f, line+1); ok {
					to = end // standalone comment line covering the next statement
				}
				ranges = append(ranges, lineRange{file: fileName, from: line, to: to})
			}
		}
	}
	for _, d := range diags {
		suppressed := false
		for _, r := range ranges {
			if d.Pos.Filename == r.file && d.Pos.Line >= r.from && d.Pos.Line <= r.to {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}

// nodeExtent returns the last line of the widest statement or
// declaration starting on the given line.
func nodeExtent(fset *token.FileSet, f *ast.File, line int) (int, bool) {
	best, found := 0, false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case ast.Stmt, ast.Decl:
			if fset.Position(n.Pos()).Line == line {
				if end := fset.Position(n.End()).Line; !found || end > best {
					best, found = end, true
				}
			}
		}
		return true
	})
	return best, found
}
