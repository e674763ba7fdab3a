package core

import (
	"fmt"
	"slices"
	"sort"

	"smartsock/internal/proto"
	"smartsock/internal/reqlang"
	"smartsock/internal/reqlang/reqtest"
)

// referenceSelect is the selection as it ran before the bounded
// winner list: walk every record of the snapshot, give each a full
// evaluation from statement 0 against name-keyed bindings and a
// Decision, append every qualifier, stable-sort them all, take n. It
// shares only the reply order (candidate.before) and the host helpers
// with the selector, so it is the oracle for the loop, the candidate
// sources, the slot binding and the top-n insertion alike — and, read
// against Explain, for the Decisions.
func referenceSelect(s *Selector, prog *reqlang.Program, n int, opt proto.Option) (Result, error) {
	if n > proto.MaxServers {
		n = proto.MaxServers
	}
	snap := s.db.SysView()
	result := Result{Epoch: snap.Epoch, Decisions: make([]Decision, 0, snap.Len())}
	cutoff := s.db.Now().Add(-s.cfg.MaxStatusAge)
	var candidates []candidate
	for i := 0; i < snap.Len(); i++ {
		rec := snap.At(i)
		if s.cfg.MaxStatusAge > 0 && rec.UpdatedAt.Before(cutoff) {
			result.StaleDropped++
			continue
		}
		host := rec.Status.Host
		// The selector's historical bindings: the mentioned variables
		// the record reports, the group's network metrics, the host's
		// security level.
		params := map[string]float64{}
		for _, name := range prog.MentionedVars() {
			if v, ok := rec.Status.Var(name); ok {
				params[name] = v
			}
		}
		mentions := func(name string) bool { return slices.Contains(prog.MentionedVars(), name) }
		needNet := mentions("monitor_network_delay") || mentions("monitor_network_bw")
		if needNet && s.cfg.GroupOf != nil && s.cfg.LocalMonitor != "" {
			if group := s.cfg.GroupOf(host); group == s.cfg.LocalMonitor {
				params["monitor_network_delay"], params["monitor_network_bw"] = 0, 1e5
			} else if nr, ok := s.db.GetNet(s.cfg.LocalMonitor, group); ok && group != "" {
				params["monitor_network_delay"] = float64(nr.Metric.Delay.Milliseconds())
				params["monitor_network_bw"] = nr.Metric.Bandwidth / 1e6
			}
		}
		if sec, ok := s.db.GetSec(host); ok && mentions("host_security_level") {
			params["host_security_level"] = float64(sec.Level.Level)
		}
		res := prog.Eval(reqtest.Env(prog, params))
		d := Decision{Host: host, Qualified: res.Qualified, FailedLine: res.FailedLine,
			Score: res.Score, HasScore: res.HasScore, Err: res.Err}
		if matchHost(host, res.Denied) >= 0 {
			d.Denied, d.Qualified = true, false
		}
		prefIdx := matchHost(host, res.Preferred)
		d.Preferred = prefIdx >= 0
		result.Decisions = append(result.Decisions, d)
		if d.Qualified {
			candidates = append(candidates, candidate{pos: i, preferred: prefIdx, score: res.Score, hasScore: res.HasScore})
		}
	}
	ranked := opt&proto.OptRankByExpr != 0
	sort.SliceStable(candidates, func(i, j int) bool { return candidates[i].before(&candidates[j], ranked) })
	for _, c := range candidates {
		if len(result.Servers) == n {
			break
		}
		result.Servers = append(result.Servers, s.dialAddr(snap.At(c.pos).Status.Host))
	}
	result.Shortfall = n - len(result.Servers)
	if result.Shortfall > 0 && opt&proto.OptPartialOK == 0 {
		return result, fmt.Errorf("core: only %d of %d requested servers qualify", len(result.Servers), n)
	}
	return result, nil
}
