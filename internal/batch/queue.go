package batch

import (
	"fmt"
	"time"
)

// Queue models one scheduler queue's wait behaviour.
type Queue struct {
	// Name of the queue ("normal", "debug").
	Name string
	// MaxWallTime is the queue limit; jobs above it are rejected.
	MaxWallTime time.Duration
	// BaseWait is the fixed queueing delay.
	BaseWait time.Duration
	// PerTaskWait scales the delay with requested task count (bigger jobs
	// wait longer).
	PerTaskWait time.Duration
}

// WaitFor returns the simulated queue wait for a job of the given size.
func (q Queue) WaitFor(tasks int) time.Duration {
	return q.BaseWait + time.Duration(tasks)*q.PerTaskWait
}

// Cluster is a site's batch system: a manager flavor, its queues, and a
// virtual clock that advances as jobs run.
type Cluster struct {
	Manager Manager
	Queues  []Queue

	now       time.Duration
	cpuSecond float64
}

// NewCluster creates a batch system with a conventional pair of queues: a
// "normal" production queue and a short-wait "debug" queue.
func NewCluster(m Manager) *Cluster {
	return &Cluster{
		Manager: m,
		Queues: []Queue{
			{Name: "normal", MaxWallTime: 24 * time.Hour, BaseWait: 20 * time.Minute, PerTaskWait: 30 * time.Second},
			{Name: "debug", MaxWallTime: 30 * time.Minute, BaseWait: 45 * time.Second, PerTaskWait: 2 * time.Second},
		},
	}
}

// FindQueue returns the named queue ("" selects the first/default queue).
func (c *Cluster) FindQueue(name string) (Queue, error) {
	if name == "" && len(c.Queues) > 0 {
		return c.Queues[0], nil
	}
	for _, q := range c.Queues {
		if q.Name == name {
			return q, nil
		}
	}
	return Queue{}, fmt.Errorf("batch: unknown queue %q", name)
}

// Now returns the virtual clock.
func (c *Cluster) Now() time.Duration { return c.now }

// CPUHoursUsed returns accumulated accounting.
func (c *Cluster) CPUHoursUsed() float64 { return c.cpuSecond / 3600 }

// JobResult reports one submission.
type JobResult struct {
	// QueueWait is the simulated time spent pending.
	QueueWait time.Duration
	// RunTime is the simulated execution time.
	RunTime time.Duration
	// Attempts is how many submissions were made (retry policy).
	Attempts int
	// Success is the payload's final outcome.
	Success bool
	// Output is the payload's final textual outcome.
	Output string
}

// Payload is the simulated job body: it returns success and output, plus
// the simulated run duration.
type Payload func(attempt int) (success bool, output string, runTime time.Duration)

// Submit runs a job through the queue with the paper's retry policy: up to
// maxAttempts submissions, spaced by retrySpacing of virtual time, stopping
// at the first success.
func (c *Cluster) Submit(spec ScriptSpec, payload Payload, maxAttempts int, retrySpacing time.Duration) (JobResult, error) {
	q, err := c.FindQueue(spec.Queue)
	if err != nil {
		return JobResult{}, err
	}
	if spec.WallTime > q.MaxWallTime {
		return JobResult{}, fmt.Errorf("batch: walltime %s exceeds queue %s limit %s", spec.WallTime, q.Name, q.MaxWallTime)
	}
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	tasks := spec.Nodes * spec.Tasks
	if tasks < 1 {
		tasks = 1
	}
	var res JobResult
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		wait := q.WaitFor(tasks)
		c.now += wait
		res.QueueWait += wait
		ok, out, runTime := payload(attempt)
		if runTime > spec.WallTime && spec.WallTime > 0 {
			// The scheduler kills jobs at the wall-time limit.
			runTime = spec.WallTime
			ok = false
			out = "killed: walltime exceeded"
		}
		c.now += runTime
		res.RunTime += runTime
		c.cpuSecond += runTime.Seconds() * float64(tasks)
		res.Attempts = attempt
		res.Success = ok
		res.Output = out
		if ok {
			break
		}
		if attempt < maxAttempts {
			c.now += retrySpacing
		}
	}
	return res, nil
}
