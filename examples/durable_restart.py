"""Durable restart demo: journal feedback, crash the process, recover warm.

Walks the durability story end to end:

1. a durable serving cluster journals every click-feedback mutation into
   ``<dir>/journal.log`` and publishes atomic snapshots under
   ``<dir>/snapshots/``;
2. the "process" crashes — the journal writer drops dead mid-stream (the
   fsync policy decides what survives) and the cluster is torn down;
3. a fresh cluster boots by recovery: latest valid snapshot ⊕ journal
   replay, byte-identical to the live state (proved with
   ``state_fingerprint``), feature caches re-warmed from the recovered
   recent-context window;
4. the recovered cluster serves its first burst warm and keeps journaling
   where the crash left off.

Run with:  python examples/durable_restart.py [--fsync every-write|interval|off]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.data import ElemeDatasetConfig, make_eleme_dataset
from repro.models import ModelConfig, create_model
from repro.serving import (
    ClusterConfig,
    DurableStateStore,
    OnlineRequestEncoder,
    PipelineConfig,
    ReplayBuffer,
    ServingState,
    build_cluster,
    state_fingerprint,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fsync", default="every-write",
                        choices=("every-write", "interval", "off"),
                        help="journal durability policy")
    parser.add_argument("--feedback", type=int, default=300,
                        help="click-feedback events before the crash")
    args = parser.parse_args()

    print("Generating synthetic world ...")
    dataset = make_eleme_dataset(
        ElemeDatasetConfig(num_users=3000, num_items=900, num_days=5,
                           sessions_per_day=400, seed=7)
    )
    world, schema = dataset.world, dataset.schema
    encoder = OnlineRequestEncoder(world, schema)
    model = create_model(
        "basm", schema,
        ModelConfig(embedding_dim=8, attention_dim=32, tower_units=(64, 32)),
    )
    pipeline_config = PipelineConfig(recall_size=20, exposure_size=6)
    cluster_config = ClusterConfig(num_workers=2)

    with tempfile.TemporaryDirectory(prefix="durable-demo-") as directory:
        durable_dir = Path(directory)

        # ---- 1. a durable cluster takes traffic and feedback ---------- #
        store = DurableStateStore(durable_dir, fsync=args.fsync, interval=32)
        state = ServingState(world)
        state.attach_replay(ReplayBuffer(encoder, max_impressions=512))
        frontend = build_cluster(
            world, model, encoder, state,
            config=cluster_config, pipeline_config=pipeline_config,
            durable=store,
        )
        print(f"Durable dir: {durable_dir}  (fsync={args.fsync})")

        rng = np.random.default_rng(3)
        for step in range(args.feedback):
            response = frontend.serve(world.sample_request_context(step % 3, rng))
            clicks = (rng.random(len(response.items)) < 0.25).astype(np.float32)
            frontend.feedback(response, clicks, rng=rng)
            if step == args.feedback // 2:
                info = frontend.snapshot()
                print(f"Mid-run snapshot: generation {info.generation} "
                      f"@ sequence {info.journal_sequence}")
        live_fingerprint = state_fingerprint(state)
        live_sequence = state.feedback_seq
        print(f"Live state: sequence {live_sequence}, "
              f"fingerprint {live_fingerprint[:16]}...")

        # ---- 2. the process dies -------------------------------------- #
        print("\nCRASH: journal writer killed, cluster torn down.")
        state.journal.crash()
        frontend.close()

        # ---- 3. a fresh process recovers ------------------------------ #
        store = DurableStateStore(durable_dir, fsync=args.fsync, interval=32)
        recovered, report = store.recover(world, encoder=encoder)
        print(f"Recovery: {report.summary()}")
        print(f"Cache warming primed {report.warmed_users} recently active "
              f"user(s); {recovered.features.num_volatile} behaviour entries")

        fingerprint = state_fingerprint(recovered)
        if args.fsync == "every-write":
            match = "IDENTICAL" if fingerprint == live_fingerprint else "DIVERGED"
            print(f"Recovered vs live fingerprint: {match}")
        else:
            lost = live_sequence - report.recovered_sequence
            print(f"Lossy policy {args.fsync!r}: {lost} uncommitted event(s) "
                  f"rolled back to the last durable point")

        # ---- 4. the recovered cluster serves warm and keeps going ----- #
        frontend = build_cluster(
            world, model, encoder, recovered,
            config=cluster_config, pipeline_config=pipeline_config,
            durable=store,
        )
        print(f"\nWarm boot: {frontend.warmed_requests} recovered contexts "
              f"pre-served into the response cache")
        response = frontend.serve(recovered.recent_contexts[-1])
        print(f"First request after boot: {len(response.items)} items, "
              f"cache {frontend.cache.stats()['hits']} hit(s)")
        frontend.feedback(
            response, np.ones(len(response.items), dtype=np.float32), rng=rng
        )
        print(f"Feedback resumes at sequence {recovered.feedback_seq} "
              f"(crashed at {live_sequence})")
        frontend.close()
        store.close()


if __name__ == "__main__":
    main()
