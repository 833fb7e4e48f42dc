// Package batch simulates the HPC resource-manager layer FEAM submits its
// probe jobs through: PBS, SGE, and SLURM submission-script formats, queue
// wait-time modelling (including the short debug queues the paper recommends
// for FEAM runs), CPU-hour accounting, and the spaced retry policy the
// evaluation used (five attempts, spread out to dodge transient overload).
//
// FEAM itself only requires the user to supply one serial and one parallel
// submission script per site — the single piece of site knowledge the paper
// does not automate — so this package also provides the %CMD% placeholder
// substitution FEAM performs on those scripts.
package batch

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Manager is a resource-manager flavor.
type Manager int

const (
	PBS Manager = iota
	SGE
	SLURM
)

func (m Manager) String() string {
	switch m {
	case PBS:
		return "PBS"
	case SGE:
		return "SGE"
	case SLURM:
		return "SLURM"
	default:
		return fmt.Sprintf("Manager(%d)", int(m))
	}
}

// ScriptSpec describes a submission script.
type ScriptSpec struct {
	Manager  Manager
	JobName  string
	Queue    string
	Nodes    int
	Tasks    int
	WallTime time.Duration
	// Command is the job payload; "%CMD%" in templates is replaced by it.
	Command string
}

// CmdPlaceholder is the token FEAM substitutes into user-provided templates.
const CmdPlaceholder = "%CMD%"

// Generate renders the submission script in the manager's native directive
// syntax.
func Generate(spec ScriptSpec) string {
	var b strings.Builder
	b.WriteString("#!/bin/sh\n")
	wall := fmtWall(spec.Manager, spec.WallTime)
	switch spec.Manager {
	case PBS:
		fmt.Fprintf(&b, "#PBS -N %s\n", spec.JobName)
		if spec.Queue != "" {
			fmt.Fprintf(&b, "#PBS -q %s\n", spec.Queue)
		}
		fmt.Fprintf(&b, "#PBS -l nodes=%d:ppn=%d\n", spec.Nodes, spec.Tasks)
		fmt.Fprintf(&b, "#PBS -l walltime=%s\n", wall)
	case SGE:
		fmt.Fprintf(&b, "#$ -N %s\n", spec.JobName)
		if spec.Queue != "" {
			fmt.Fprintf(&b, "#$ -q %s\n", spec.Queue)
		}
		fmt.Fprintf(&b, "#$ -pe mpi %d\n", spec.Nodes*spec.Tasks)
		fmt.Fprintf(&b, "#$ -l h_rt=%s\n", wall)
	case SLURM:
		fmt.Fprintf(&b, "#SBATCH --job-name=%s\n", spec.JobName)
		if spec.Queue != "" {
			fmt.Fprintf(&b, "#SBATCH --partition=%s\n", spec.Queue)
		}
		fmt.Fprintf(&b, "#SBATCH --nodes=%d\n", spec.Nodes)
		fmt.Fprintf(&b, "#SBATCH --ntasks-per-node=%d\n", spec.Tasks)
		fmt.Fprintf(&b, "#SBATCH --time=%s\n", wall)
	}
	b.WriteString(spec.Command)
	b.WriteString("\n")
	return b.String()
}

// fmtWall renders a walltime in the manager's conventional syntax:
// rolling hours ("26:03:04") for PBS and SGE, and SLURM's day form
// ("2-00:30:00") once the request reaches a full day — the same value
// sbatch would echo back.
func fmtWall(m Manager, d time.Duration) string {
	total := int(d.Seconds())
	if m == SLURM && total >= 24*3600 {
		days := total / (24 * 3600)
		rem := total - days*24*3600
		return fmt.Sprintf("%d-%02d:%02d:%02d", days, rem/3600, (rem/60)%60, rem%60)
	}
	return fmt.Sprintf("%02d:%02d:%02d", total/3600, (total/60)%60, total%60)
}

// Parse recovers a ScriptSpec from a submission script. Unknown directive
// lines are ignored; the last non-directive, non-comment line is taken as
// the command.
//
// Malformed directives are errors, not silent defaults: a walltime that
// does not parse, a non-numeric node/task count, or a script mixing
// directives of different managers all fail with the offending line
// number. A zero-valued WallTime slipping through here used to bypass
// Submit's queue MaxWallTime check entirely, which is exactly how an
// unparseable "--time=" once queued a week-long job on a debug queue.
func Parse(text string) (ScriptSpec, error) {
	spec := ScriptSpec{Nodes: 1, Tasks: 1}
	sawDirective := false
	for i, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		var (
			m    Manager
			rest string
			ok   bool
		)
		switch {
		case strings.HasPrefix(trimmed, "#PBS "):
			m, rest, ok = PBS, strings.TrimPrefix(trimmed, "#PBS "), true
		case strings.HasPrefix(trimmed, "#$ "):
			m, rest, ok = SGE, strings.TrimPrefix(trimmed, "#$ "), true
		case strings.HasPrefix(trimmed, "#SBATCH "):
			m, rest, ok = SLURM, strings.TrimPrefix(trimmed, "#SBATCH "), true
		case trimmed == "" || strings.HasPrefix(trimmed, "#"):
			// comment or shebang
			continue
		default:
			spec.Command = trimmed
			continue
		}
		if ok {
			if sawDirective && m != spec.Manager {
				return spec, fmt.Errorf("batch: line %d: %s directive in a %s script", i+1, m, spec.Manager)
			}
			spec.Manager = m
			sawDirective = true
			var err error
			switch m {
			case PBS:
				err = parsePBS(&spec, rest)
			case SGE:
				err = parseSGE(&spec, rest)
			case SLURM:
				err = parseSLURM(&spec, rest)
			}
			if err != nil {
				return spec, fmt.Errorf("batch: line %d: %v", i+1, err)
			}
		}
	}
	if !sawDirective {
		return spec, fmt.Errorf("batch: no recognizable scheduler directives")
	}
	return spec, nil
}

func parsePBS(spec *ScriptSpec, rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil
	}
	switch fields[0] {
	case "-N":
		spec.JobName = fields[1]
	case "-q":
		spec.Queue = fields[1]
	case "-l":
		for _, kv := range strings.Split(fields[1], ",") {
			if strings.HasPrefix(kv, "walltime=") {
				wall, err := parseWallSeconds(strings.TrimPrefix(kv, "walltime="))
				if err != nil {
					return fmt.Errorf("walltime: %v", err)
				}
				spec.WallTime = wall
			}
			if strings.HasPrefix(kv, "nodes=") {
				parts := strings.Split(strings.TrimPrefix(kv, "nodes="), ":")
				n, err := parseCount(parts[0])
				if err != nil {
					return fmt.Errorf("nodes=%s: %v", parts[0], err)
				}
				spec.Nodes = n
				for _, p := range parts[1:] {
					if strings.HasPrefix(p, "ppn=") {
						t, err := parseCount(strings.TrimPrefix(p, "ppn="))
						if err != nil {
							return fmt.Errorf("%s: %v", p, err)
						}
						spec.Tasks = t
					}
				}
			}
		}
	}
	return nil
}

func parseSGE(spec *ScriptSpec, rest string) error {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil
	}
	switch fields[0] {
	case "-N":
		spec.JobName = fields[1]
	case "-q":
		spec.Queue = fields[1]
	case "-pe":
		if len(fields) >= 3 {
			t, err := parseCount(fields[2])
			if err != nil {
				return fmt.Errorf("-pe %s %s: %v", fields[1], fields[2], err)
			}
			spec.Tasks = t
			spec.Nodes = 1
		}
	case "-l":
		if strings.HasPrefix(fields[1], "h_rt=") {
			wall, err := parseWallSeconds(strings.TrimPrefix(fields[1], "h_rt="))
			if err != nil {
				return fmt.Errorf("h_rt: %v", err)
			}
			spec.WallTime = wall
		}
	}
	return nil
}

func parseSLURM(spec *ScriptSpec, rest string) error {
	for _, f := range strings.Fields(rest) {
		switch {
		case strings.HasPrefix(f, "--job-name="):
			spec.JobName = strings.TrimPrefix(f, "--job-name=")
		case strings.HasPrefix(f, "--partition="):
			spec.Queue = strings.TrimPrefix(f, "--partition=")
		case strings.HasPrefix(f, "--nodes="):
			n, err := parseCount(strings.TrimPrefix(f, "--nodes="))
			if err != nil {
				return fmt.Errorf("%s: %v", f, err)
			}
			spec.Nodes = n
		case strings.HasPrefix(f, "--ntasks-per-node="):
			t, err := parseCount(strings.TrimPrefix(f, "--ntasks-per-node="))
			if err != nil {
				return fmt.Errorf("%s: %v", f, err)
			}
			spec.Tasks = t
		case strings.HasPrefix(f, "--time="):
			wall, err := parseWall(strings.TrimPrefix(f, "--time="))
			if err != nil {
				return fmt.Errorf("--time: %v", err)
			}
			spec.WallTime = wall
		}
	}
	return nil
}

// parseWall parses a SLURM --time= value. sbatch accepts six forms —
// "MM", "MM:SS", "HH:MM:SS", "D-HH", "D-HH:MM", and "D-HH:MM:SS" — and a
// bare number means MINUTES, not seconds. Every one of the short forms
// used to parse as zero here, which then sailed through Submit's
// MaxWallTime check; now anything outside the six forms is an error.
func parseWall(s string) (time.Duration, error) {
	days := 0
	rest := s
	if i := strings.IndexByte(s, '-'); i >= 0 {
		d, err := parseWallInt(s[:i])
		if err != nil {
			return 0, fmt.Errorf("bad walltime %q: %v", s, err)
		}
		days, rest = d, s[i+1:]
		// Day forms: D-HH, D-HH:MM, D-HH:MM:SS.
		parts, err := parseWallParts(rest, 3)
		if err != nil {
			return 0, fmt.Errorf("bad walltime %q: %v", s, err)
		}
		h, m, sec := parts[0], 0, 0
		if len(parts) > 1 {
			m = parts[1]
		}
		if len(parts) > 2 {
			sec = parts[2]
		}
		return wallDuration(days, h, m, sec), nil
	}
	parts, err := parseWallParts(rest, 3)
	if err != nil {
		return 0, fmt.Errorf("bad walltime %q: %v", s, err)
	}
	switch len(parts) {
	case 1: // MM — minutes, per sbatch(1)
		return wallDuration(0, 0, parts[0], 0), nil
	case 2: // MM:SS
		return wallDuration(0, 0, parts[0], parts[1]), nil
	default: // HH:MM:SS
		return wallDuration(0, parts[0], parts[1], parts[2]), nil
	}
}

// parseWallSeconds parses a PBS walltime= / SGE h_rt= value: "SS" (bare
// seconds), "MM:SS", or "HH:MM:SS". Hours may exceed 23 (rolling hours).
func parseWallSeconds(s string) (time.Duration, error) {
	parts, err := parseWallParts(s, 3)
	if err != nil {
		return 0, fmt.Errorf("bad walltime %q: %v", s, err)
	}
	switch len(parts) {
	case 1: // SS — seconds, per qsub's resource syntax
		return wallDuration(0, 0, 0, parts[0]), nil
	case 2: // MM:SS
		return wallDuration(0, 0, parts[0], parts[1]), nil
	default: // HH:MM:SS
		return wallDuration(0, parts[0], parts[1], parts[2]), nil
	}
}

// parseWallParts splits a colon-separated walltime into at most max
// non-negative integer components.
func parseWallParts(s string, max int) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("empty")
	}
	fields := strings.Split(s, ":")
	if len(fields) > max {
		return nil, fmt.Errorf("too many components")
	}
	out := make([]int, len(fields))
	for i, f := range fields {
		n, err := parseWallInt(f)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

func parseWallInt(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("empty component")
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%q is not a non-negative integer", s)
	}
	return n, nil
}

func wallDuration(days, h, m, s int) time.Duration {
	return time.Duration(days)*24*time.Hour +
		time.Duration(h)*time.Hour + time.Duration(m)*time.Minute + time.Duration(s)*time.Second
}

// parseCount parses a node/task count; zero and negative values are as
// wrong as non-numbers (a "nodes=0" request would divide the accounting).
func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%q is not a number", s)
	}
	if n < 1 {
		return 0, fmt.Errorf("%d is not a positive count", n)
	}
	return n, nil
}

// Substitute replaces the %CMD% placeholder in a user-provided template.
func Substitute(template, command string) string {
	return strings.ReplaceAll(template, CmdPlaceholder, command)
}
