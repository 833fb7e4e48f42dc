package batch

import (
	"strings"
	"testing"
	"time"
)

func TestGenerateParseRoundTrip(t *testing.T) {
	for _, m := range []Manager{PBS, SGE, SLURM} {
		spec := ScriptSpec{
			Manager: m, JobName: "feam-probe", Queue: "debug",
			Nodes: 2, Tasks: 4, WallTime: 10 * time.Minute,
			Command: "mpiexec -n 8 ./hello",
		}
		text := Generate(spec)
		got, err := Parse(text)
		if err != nil {
			t.Fatalf("%v: %v\nscript:\n%s", m, err, text)
		}
		if got.Manager != m {
			t.Errorf("%v: manager = %v", m, got.Manager)
		}
		if got.JobName != "feam-probe" || got.Queue != "debug" {
			t.Errorf("%v: name/queue = %q/%q", m, got.JobName, got.Queue)
		}
		if got.Command != "mpiexec -n 8 ./hello" {
			t.Errorf("%v: command = %q", m, got.Command)
		}
		if got.WallTime != 10*time.Minute {
			t.Errorf("%v: walltime = %v", m, got.WallTime)
		}
		if m == SGE {
			// SGE expresses size as total slots.
			if got.Nodes*got.Tasks != 8 {
				t.Errorf("SGE size = %d x %d", got.Nodes, got.Tasks)
			}
		} else if got.Nodes != 2 || got.Tasks != 4 {
			t.Errorf("%v: size = %d x %d", m, got.Nodes, got.Tasks)
		}
	}
}

func TestParseRejectsPlainShell(t *testing.T) {
	if _, err := Parse("#!/bin/sh\necho hi\n"); err == nil {
		t.Error("script without directives should not parse")
	}
}

func TestManagerStrings(t *testing.T) {
	if PBS.String() != "PBS" || SGE.String() != "SGE" || SLURM.String() != "SLURM" {
		t.Error("Manager.String broken")
	}
}

func TestSubstitute(t *testing.T) {
	tpl := Generate(ScriptSpec{Manager: PBS, JobName: "t", Nodes: 1, Tasks: 1,
		WallTime: time.Minute, Command: CmdPlaceholder})
	out := Substitute(tpl, "./feam --phase target")
	if strings.Contains(out, CmdPlaceholder) {
		t.Error("placeholder not substituted")
	}
	if !strings.Contains(out, "./feam --phase target") {
		t.Error("command missing")
	}
}

func TestClusterQueues(t *testing.T) {
	c := NewCluster(PBS)
	q, err := c.FindQueue("debug")
	if err != nil || q.Name != "debug" {
		t.Fatalf("FindQueue(debug) = %+v, %v", q, err)
	}
	if _, err := c.FindQueue("imaginary"); err == nil {
		t.Error("unknown queue accepted")
	}
	def, err := c.FindQueue("")
	if err != nil || def.Name != "normal" {
		t.Errorf("default queue = %+v, %v", def, err)
	}
	// Debug queue waits far less than normal for the same job.
	if c.Queues[1].WaitFor(16) >= c.Queues[0].WaitFor(16) {
		t.Error("debug queue should be faster")
	}
}

func TestSubmitSuccessFirstTry(t *testing.T) {
	c := NewCluster(SLURM)
	spec := ScriptSpec{Manager: SLURM, JobName: "p", Queue: "debug", Nodes: 1, Tasks: 4,
		WallTime: 5 * time.Minute, Command: "./hello"}
	res, err := c.Submit(spec, func(attempt int) (bool, string, time.Duration) {
		return true, "Hello world", 30 * time.Second
	}, 5, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.Attempts != 1 {
		t.Errorf("res = %+v", res)
	}
	if res.RunTime != 30*time.Second {
		t.Errorf("RunTime = %v", res.RunTime)
	}
	if c.CPUHoursUsed() <= 0 {
		t.Error("no accounting")
	}
}

func TestSubmitRetriesThenSucceeds(t *testing.T) {
	c := NewCluster(PBS)
	spec := ScriptSpec{Manager: PBS, Queue: "debug", Nodes: 1, Tasks: 1,
		WallTime: 5 * time.Minute, Command: "./flaky"}
	res, err := c.Submit(spec, func(attempt int) (bool, string, time.Duration) {
		return attempt >= 3, "mpd startup", 10 * time.Second
	}, 5, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success || res.Attempts != 3 {
		t.Errorf("res = %+v", res)
	}
}

func TestSubmitExhaustsRetries(t *testing.T) {
	c := NewCluster(PBS)
	spec := ScriptSpec{Manager: PBS, Queue: "debug", Nodes: 1, Tasks: 1,
		WallTime: 5 * time.Minute, Command: "./doomed"}
	before := c.Now()
	res, err := c.Submit(spec, func(attempt int) (bool, string, time.Duration) {
		return false, "segfault", time.Second
	}, 5, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Success || res.Attempts != 5 {
		t.Errorf("res = %+v", res)
	}
	// Virtual clock advanced by waits, runs, and retry spacing.
	if c.Now() <= before {
		t.Error("clock did not advance")
	}
}

func TestSubmitWallTimeKill(t *testing.T) {
	c := NewCluster(SGE)
	spec := ScriptSpec{Manager: SGE, Queue: "debug", Nodes: 1, Tasks: 1,
		WallTime: time.Minute, Command: "./long"}
	res, err := c.Submit(spec, func(attempt int) (bool, string, time.Duration) {
		return true, "done", time.Hour
	}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Success {
		t.Error("job exceeding walltime should be killed")
	}
	if !strings.Contains(res.Output, "walltime") {
		t.Errorf("Output = %q", res.Output)
	}
}

func TestSubmitQueueLimits(t *testing.T) {
	c := NewCluster(PBS)
	spec := ScriptSpec{Manager: PBS, Queue: "debug", Nodes: 1, Tasks: 1,
		WallTime: 2 * time.Hour, Command: "x"}
	if _, err := c.Submit(spec, nil, 1, 0); err == nil {
		t.Error("walltime above queue limit accepted")
	}
	spec.Queue = "nope"
	if _, err := c.Submit(spec, nil, 1, 0); err == nil {
		t.Error("unknown queue accepted")
	}
}
