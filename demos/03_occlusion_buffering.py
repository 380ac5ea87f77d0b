"""What the history window tau buys during a dropout.

An identity disappears completely for ten frames (think full occlusion) in a
scenario with noticeable embedding noise. Both configurations keep lost
tracks alive for up to 30 frames; they differ only in the feature window:

  tau=30  feature = score-weighted mean of the last 30 embeddings
  tau=1   feature = the single most recent embedding

Averaging suppresses the noise, so the tau=30 feature re-acquires its
identity reliably; a single noisy embedding misses the similarity gate often
enough to fragment tracks.

Run with: python3 demos/03_occlusion_buffering.py
"""

from reidmot import ScenarioSpec, TrackerConfig, evaluate, generate, run_sequence


def idsw(bundle, tau):
    outs = run_sequence(bundle.frames, TrackerConfig(tau=tau, max_lost_age=30))
    return evaluate(list(bundle.gt), outs).idsw


def main():
    print(f"{'seed':>4} {'IDSW tau=30':>12} {'IDSW tau=1':>11}")
    totals = [0, 0]
    for seed in range(10):
        spec = ScenarioSpec(
            num_identities=3, num_frames=120, embedding_dim=16,
            embed_noise_sigma=0.15, min_identity_separation=0.8,
            score_dips=((45, 54, 2, 0.5),),
            dropout_windows=((60, 69, 1),),  # identity 1 gone, frames 60..69
            seed=seed,
        )
        bundle = generate(spec)
        a, b = idsw(bundle, 30), idsw(bundle, 1)
        totals[0] += a
        totals[1] += b
        print(f"{seed:>4} {a:>12} {b:>11}")
    print(f"{'sum':>4} {totals[0]:>12} {totals[1]:>11}")


if __name__ == "__main__":
    main()
