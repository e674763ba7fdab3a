package lint

import "path/filepath"

// JSONFinding is the wire form of a Finding, printed by smartlint
// -json. File is repo-relative so the output is stable across
// checkouts.
type JSONFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// ToJSON converts findings to their wire form, making file paths
// relative to root (typically the module root) where possible. The
// order is Run's, and the result is never nil: a clean run encodes as
// [] — "zero findings" — not null.
func ToJSON(findings []Finding, root string) []JSONFinding {
	out := make([]JSONFinding, 0, len(findings))
	for _, f := range findings {
		file := f.Pos.Filename
		if root != "" {
			if rel, err := filepath.Rel(root, file); err == nil && !filepath.IsAbs(rel) {
				file = filepath.ToSlash(rel)
			}
		}
		out = append(out, JSONFinding{
			File:     file,
			Line:     f.Pos.Line,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	return out
}
