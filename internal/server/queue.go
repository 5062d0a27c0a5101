package server

import (
	"container/heap"
	"errors"
	"sync"
)

var (
	errQueueFull = errors.New("queue full")
	errDraining  = errors.New("server draining")
)

// jobQueue is a bounded priority queue: higher priority pops first, FIFO
// (by enqueue sequence) within a level. close() stops accepting pushes;
// pops drain the remaining backlog before reporting closed, so every
// accepted job gets an answer during a graceful drain.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	heap   jobHeap
	max    int
	closed bool
}

func newJobQueue(max int) *jobQueue {
	if max <= 0 {
		max = 64
	}
	q := &jobQueue{max: max}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *jobQueue) push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errDraining
	}
	if len(q.heap) >= q.max {
		return errQueueFull
	}
	heap.Push(&q.heap, j)
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available or the queue is closed AND empty.
func (q *jobQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.heap) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.heap) == 0 {
		return nil, false
	}
	return heap.Pop(&q.heap).(*job), true
}

func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
