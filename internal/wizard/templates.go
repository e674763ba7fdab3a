package wizard

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"smartsock/internal/reqlang"
)

// Template files let operators predefine the requirement templates of
// §3.6.1 ("when the user wants to use some predefined server
// requirement templates"). The format is INI-like: a [name] header
// starts a template, the following meta-language lines are its body,
// and '#' comments inside bodies belong to the requirement itself:
//
//	[cpu-intensive]
//	host_cpu_bogomips > 4000
//	host_cpu_free > 0.9
//
//	[data-intensive]
//	monitor_network_bw > 6
//	host_disk_allreq < 50
//
// Every body is validated with the requirement parser at load time so
// a broken template fails at start-up, not at the first request.

// ParseTemplates reads template definitions from r.
func ParseTemplates(r io.Reader) (map[string]string, error) {
	out := map[string]string{}
	var name string
	var body strings.Builder
	lineNo := 0

	flush := func() error {
		if name == "" {
			return nil
		}
		text := body.String()
		if strings.TrimSpace(text) == "" {
			return fmt.Errorf("wizard: template %q is empty", name)
		}
		// Validated once, at load time; requests compile through the cache.
		if _, err := reqlang.Parse(text); err != nil {
			return fmt.Errorf("wizard: template %q: %w", name, err)
		}
		if _, dup := out[name]; dup {
			return fmt.Errorf("wizard: duplicate template %q", name)
		}
		out[name] = text
		body.Reset()
		return nil
	}

	sc := bufio.NewScanner(r)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "[") && strings.HasSuffix(trimmed, "]") {
			if err := flush(); err != nil {
				return nil, err
			}
			name = strings.TrimSpace(trimmed[1 : len(trimmed)-1])
			if name == "" {
				return nil, fmt.Errorf("wizard: line %d: empty template name", lineNo)
			}
			continue
		}
		if name == "" {
			if trimmed == "" || strings.HasPrefix(trimmed, "#") {
				continue // leading comments before the first section
			}
			return nil, fmt.Errorf("wizard: line %d: requirement text before any [template] header", lineNo)
		}
		body.WriteString(line)
		body.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("wizard: %w", err)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// LoadTemplates reads and validates a template file.
func LoadTemplates(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wizard: %w", err)
	}
	defer f.Close()
	return ParseTemplates(f)
}
