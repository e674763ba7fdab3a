package core

import (
	"fmt"
	"strings"

	"smartsock/internal/reqlang"
)

// Explain renders the selection outcome as the kind of walkthrough
// Fig 1.4 gives: one line per server with the reason it was taken or
// left. prog supplies statement text so rejections can quote the
// failing requirement line.
func (r *Result) Explain(prog *reqlang.Program) string {
	var b strings.Builder
	chosen := make(map[string]bool, len(r.Servers))
	for _, s := range r.Servers {
		chosen[s] = true
	}
	stmtText := map[int]string{}
	if prog != nil {
		for _, s := range prog.Stmts {
			stmtText[s.Line] = s.Src
		}
	}
	for _, d := range r.Decisions {
		fmt.Fprintf(&b, "%-20s %s\n", d.Host, describeDecision(d, chosen, stmtText))
	}
	if r.Shortfall > 0 {
		fmt.Fprintf(&b, "(%d requested server(s) could not be found)\n", r.Shortfall)
	}
	return b.String()
}

func describeDecision(d Decision, chosen map[string]bool, stmtText map[int]string) string {
	switch {
	case d.Denied:
		return "rejected: blacklisted by user_denied_host"
	case d.Err != nil:
		return fmt.Sprintf("rejected: requirement error: %v", d.Err)
	case !d.Qualified:
		if line := stmtText[d.FailedLine]; line != "" {
			return fmt.Sprintf("rejected: fails line %d: %s", d.FailedLine, line)
		}
		return fmt.Sprintf("rejected: fails requirement line %d", d.FailedLine)
	case isChosen(d.Host, chosen):
		if d.Preferred {
			return "SELECTED (user-preferred)"
		}
		if d.HasScore {
			return fmt.Sprintf("SELECTED (score %g)", d.Score)
		}
		return "SELECTED"
	default:
		return "qualified but not needed"
	}
}
