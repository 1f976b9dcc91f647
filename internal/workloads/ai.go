package workloads

import (
	"fmt"

	"prdrb/internal/collectives"
	"prdrb/internal/sim"
	"prdrb/internal/trace"
)

// AI-training communication generators. Distributed training is the
// dominant collective-heavy workload on modern interconnects, and its
// traffic is exactly the regime PR-DRB targets: the same large collective
// repeats every training step, so a policy that recognizes a contention
// pattern once and re-applies the stored solution should keep winning on
// every subsequent step. Three decompositions are modeled:
//
//   - ai-dp-allreduce: pure data parallelism — every step is backprop
//     compute interleaved with bucketed gradient Allreduce (the
//     gradient-bucketing overlap of DDP-style frameworks: the bucket for
//     the top layers reduces while the lower layers are still computing).
//   - ai-pp-pipeline: pure pipeline parallelism — microbatch activation
//     chains flow stage-to-stage forward, gradient chains flow backward
//     (GPipe schedule), almost no collectives.
//   - ai-dp-pp: the hybrid — dp replicas of a stages-deep pipeline;
//     activations move within a replica, gradients Allreduce across each
//     stage's replica group (an MPI sub-communicator per stage).
//
// Options mapping: MsgBytes is the per-bucket gradient size (dp) or the
// per-microbatch activation size (pp); Iterations is training steps;
// Collective picks the Allreduce algorithm (ring, recursive-doubling,
// halving-doubling, reduce-bcast).

// aiAllreduceAlg resolves the Allreduce algorithm for an n-rank
// communicator, honoring Options.Collective.
func (o Options) aiAllreduceAlg(n int) string {
	if o.Collective == "" {
		return collectives.DefaultAllreduce(n)
	}
	return o.Collective
}

// aiBuckets is the gradient bucket count per backprop pass: the model's
// layers are flushed top-down in this many Allreduce-sized chunks.
const aiBuckets = 4

// aiDPAllreduce generates a data-parallel training job: per step, a
// forward pass, then backprop emitting aiBuckets gradient buckets top
// layer first, each bucket's Allreduce issued as soon as its gradients
// exist — so bucket k's reduction is on the wire while buckets k+1..L are
// still computing. A scalar loss Allreduce closes every step and the
// initial parameter Bcast opens the job. Any rank count >= 2 works (data
// parallelism has no grid).
func aiDPAllreduce(opt Options) (generator, error) {
	n := opt.ranks()
	if n < 2 {
		return generator{}, fmt.Errorf("workloads: data parallelism needs >= 2 ranks, got %d", n)
	}
	alg := opt.aiAllreduceAlg(n)
	iters := opt.iters(4)
	bucketBytes := opt.bytes(64 * 1024)
	comp := opt.compute(80 * sim.Microsecond)
	return generator{name: fmt.Sprintf("ai-dp-allreduce-%s-%d", alg, n), ranks: n, emit: func(b *trace.Builder) error {
		b.Bcast(0, 1024) // initial parameter broadcast from rank 0
		for it := 0; it < iters; it++ {
			// Forward pass: pure compute, no communication.
			for r := 0; r < n; r++ {
				b.Compute(r, comp)
			}
			// Backprop: top-down per-bucket compute, each bucket reduced as
			// soon as it is ready (the DDP bucketing overlap).
			for bucket := aiBuckets - 1; bucket >= 0; bucket-- {
				for r := 0; r < n; r++ {
					b.Compute(r, comp/aiBuckets)
				}
				if err := b.AllreduceAlg(alg, bucketBytes); err != nil {
					return err
				}
			}
			// Scalar loss/grad-norm reduction before the optimizer step.
			if err := b.AllreduceAlg(alg, 64); err != nil {
				return err
			}
		}
		return nil
	}}, nil
}

// aiMicrobatches is the pipeline depth of work in flight per step.
const aiMicrobatches = 8

// aiPPPipeline generates a pipeline-parallel training job: the n ranks
// are a linear chain of pipeline stages. Each step pushes aiMicrobatches
// activation messages forward through the chain (blocking Send/Recv, so
// the pipeline fill/drain bubbles emerge from the dependencies, exactly
// like the LU wavefront) and the matching gradient messages backward,
// with backward compute costed at twice forward. A Barrier models the
// synchronous optimizer step.
func aiPPPipeline(opt Options) (generator, error) {
	n := opt.ranks()
	if n < 2 {
		return generator{}, fmt.Errorf("workloads: a pipeline needs >= 2 stages, got %d", n)
	}
	iters := opt.iters(3)
	bytes := opt.bytes(32 * 1024)
	comp := opt.compute(40 * sim.Microsecond)
	return generator{name: fmt.Sprintf("ai-pp-pipeline-%d", n), ranks: n, emit: func(b *trace.Builder) error {
		for it := 0; it < iters; it++ {
			// Forward: activations flow stage r -> r+1 per microbatch.
			for m := 0; m < aiMicrobatches; m++ {
				for r := 0; r < n; r++ {
					if r > 0 {
						b.Recv(r, r-1)
					}
					b.Compute(r, comp)
					if r < n-1 {
						b.Send(r, r+1, bytes)
					}
				}
			}
			// Backward: gradients flow stage r -> r-1, ~2x the compute.
			for m := 0; m < aiMicrobatches; m++ {
				for r := n - 1; r >= 0; r-- {
					if r < n-1 {
						b.Recv(r, r+1)
					}
					b.Compute(r, 2*comp)
					if r > 0 {
						b.Send(r, r-1, bytes)
					}
				}
			}
			b.Barrier() // synchronous optimizer step
		}
		return nil
	}}, nil
}

// aiStages is the pipeline depth of the hybrid decomposition.
const aiStages = 4

// aiDPPP generates the hybrid data+pipeline job: ranks factor into
// n/aiStages pipeline replicas of aiStages stages each (rank = d*stages+s,
// so a replica occupies consecutive ranks). Per step, every replica runs
// the microbatch forward/backward chains concurrently, then each stage's
// dp group — an MPI sub-communicator spanning the replicas — Allreduces
// its shard of the gradients, and a tiny full-communicator Allreduce
// agrees on the loss. Requires ranks divisible by 4 with >= 2 replicas.
func aiDPPP(opt Options) (generator, error) {
	n := opt.ranks()
	dp := n / aiStages
	if n%aiStages != 0 || dp < 2 {
		return generator{}, fmt.Errorf("workloads: hybrid dp+pp needs ranks divisible by %d with >= 2 replicas, got %d", aiStages, n)
	}
	iters := opt.iters(3)
	bytes := opt.bytes(32 * 1024)
	comp := opt.compute(40 * sim.Microsecond)
	return generator{name: fmt.Sprintf("ai-dp-pp-%dx%d", dp, aiStages), ranks: n, emit: func(b *trace.Builder) error {
		rank := func(d, s int) int { return d*aiStages + s }
		// Each stage's dp group: the sub-communicator its gradients reduce
		// over.
		alg := opt.aiAllreduceAlg(dp)
		var groups [aiStages][]int
		for s := range groups {
			groups[s] = make([]int, dp)
			for d := 0; d < dp; d++ {
				groups[s][d] = rank(d, s)
			}
		}
		for it := 0; it < iters; it++ {
			// All replicas pipeline their microbatches concurrently.
			for m := 0; m < aiMicrobatches/2; m++ {
				for d := 0; d < dp; d++ {
					for s := 0; s < aiStages; s++ {
						r := rank(d, s)
						if s > 0 {
							b.Recv(r, rank(d, s-1))
						}
						b.Compute(r, comp)
						if s < aiStages-1 {
							b.Send(r, rank(d, s+1), bytes)
						}
					}
				}
			}
			for m := 0; m < aiMicrobatches/2; m++ {
				for d := 0; d < dp; d++ {
					for s := aiStages - 1; s >= 0; s-- {
						r := rank(d, s)
						if s < aiStages-1 {
							b.Recv(r, rank(d, s+1))
						}
						b.Compute(r, 2*comp)
						if s > 0 {
							b.Send(r, rank(d, s-1), bytes)
						}
					}
				}
			}
			// Gradient sync: each stage's shard reduces across its dp group.
			for _, group := range groups {
				if err := b.AllreduceGroup(group, alg, opt.bytes(64*1024)); err != nil {
					return err
				}
			}
			// Scalar loss agreement over the full communicator.
			b.Allreduce(64)
		}
		return nil
	}}, nil
}
