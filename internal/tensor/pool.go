package tensor

import "sync/atomic"

// Persistent GEMM worker pool. The banded kernels used to spawn one
// goroutine per band per call; on the training hot path that meant a
// goroutine creation, a closure allocation and a WaitGroup hand-shake per
// large GEMM. The pool replaces all of that with a fixed set of parked
// workers woken by token channels:
//
//   - a worker is a goroutine parked on a buffered wake channel; waking it
//     is one channel send, no scheduling of a new G;
//   - work travels as a plain-old-data gemmTask value (orientation plus
//     operand pointers), so nothing escapes to the heap — zero allocations
//     per call, however many bands run;
//   - the submitter claims workers from a free list with a non-blocking
//     receive and runs any band it could not hand off inline (including
//     band 0, which it always keeps). Claiming never blocks, so concurrent
//     submitters — the simulated cluster runs one goroutine per rank —
//     cannot deadlock on an exhausted pool; they just degrade toward the
//     serial path.
//
// Workers are spawned lazily up to gemmPoolCap as demand appears (the
// serial fast path in runGEMM means a GOMAXPROCS=1 process never spawns
// any), and once spawned they persist for the life of the process.
const gemmPoolCap = 64

// gemmTask is one banded GEMM: plain data shared read-only by every band.
// The epilogue, when set, is applied to each band's C rows right after they
// are computed, while they are still cache-hot.
type gemmTask struct {
	op      gemmOp
	c, a, b *Matrix
	epi     epilogue
}

// gemmJob is a task plus the row band a worker should run. It carries the
// task by value so handing it through a channel allocates nothing.
type gemmJob struct {
	task   gemmTask
	i0, i1 int
}

// gemmWorker is one parked pool goroutine. Both channels are buffered so
// neither the waker nor the worker ever blocks on the hand-shake.
type gemmWorker struct {
	wake chan gemmJob
	done chan struct{}
}

var (
	gemmIdle    = make(chan *gemmWorker, gemmPoolCap)
	gemmSpawned atomic.Int32
)

func (w *gemmWorker) loop() {
	for job := range w.wake {
		runTaskRows(&job.task, job.i0, job.i1)
		w.done <- struct{}{}
	}
}

// claimWorker takes an idle worker without blocking, spawning a new one if
// the free list is empty and the cap allows. Returns nil when the pool is
// exhausted — the caller runs that band inline.
func claimWorker() *gemmWorker {
	select {
	case w := <-gemmIdle:
		return w
	default:
	}
	if gemmSpawned.Add(1) > gemmPoolCap {
		gemmSpawned.Add(-1)
		return nil
	}
	w := &gemmWorker{wake: make(chan gemmJob, 1), done: make(chan struct{}, 1)}
	go w.loop()
	return w
}

// runTaskRows runs a task's tile kernel over C rows [i0, i1) and applies the
// fused epilogue to those rows. Band splits never change results: each C
// row's arithmetic is independent and identical in any split, so the pooled
// run is bitwise identical to the serial one at every band count.
func runTaskRows(t *gemmTask, i0, i1 int) {
	gemmRows(t, i0, i1)
	t.epi.applyRows(t.c, i0, i1)
}

// runGEMM executes a task over rows of C split into bands. The single-band
// fast path (always taken below the flop threshold or on GOMAXPROCS=1)
// touches neither channels nor the pool.
func runGEMM(t *gemmTask, rows, bands int) {
	if bands <= 1 {
		runTaskRows(t, 0, rows)
		return
	}
	var used [gemmPoolCap]*gemmWorker
	nu := 0
	for b := 1; b < bands; b++ {
		i0, i1 := bandRange(rows, b, bands)
		w := claimWorker()
		if w == nil {
			runTaskRows(t, i0, i1)
			continue
		}
		w.wake <- gemmJob{task: *t, i0: i0, i1: i1}
		used[nu] = w
		nu++
	}
	i0, i1 := bandRange(rows, 0, bands)
	runTaskRows(t, i0, i1)
	for i := 0; i < nu; i++ {
		<-used[i].done
		gemmIdle <- used[i] // never blocks: capacity equals the spawn cap
	}
}
