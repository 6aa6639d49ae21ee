"""Reference session generator: the per-call ``rng.choice`` loop, kept verbatim.

``coclick.synth.generate_sessions`` makes no ``Generator`` call per session:
it rebuilds ``random``, ``integers(0, n)``, ``choice(n, p=p)`` and
``choice(n, size=k, replace=False)`` from raw PCG64 words. Both must consume
the bit stream in exactly the same way, so the event log is part of the
reproducibility contract and this loop, which calls the ``Generator``
methods themselves, is its reference: any change to the draw order, the draw
routines or the weight normalisation on either side shows up as a differing
event list. Only meant for valid configs.
"""

import numpy as np

from coclick.logs import SessionEvent


def _zipf_weights(n, exponent):
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def oracle_sessions(corpus, config):
    """Return the event list the original per-call ``rng.choice`` loop produced."""
    rng = np.random.default_rng(config.rng_seed + 1)
    ids = [a.article_id for a in corpus.articles]
    popularity = _zipf_weights(len(ids), config.article_zipf)
    by_cluster = {}
    for aid in ids:
        by_cluster.setdefault(corpus.cluster_of[aid], []).append(aid)

    click_counts = np.array(config.clicks_dist, dtype=np.float64)
    click_counts /= click_counts.sum()

    events = []
    for s in range(config.sessions):
        session_id = f"s{s:07d}"
        target = ids[int(rng.choice(len(ids), p=popularity))]
        topics = corpus.topics[target]
        size_weights = np.array(config.query_size_weights[: len(topics)], dtype=np.float64)
        if size_weights.sum() <= 0:
            size_weights = np.ones(min(4, len(topics)))
        size_weights /= size_weights.sum()
        q_size = int(rng.choice(len(size_weights), p=size_weights)) + 1
        chosen = rng.choice(len(topics), size=q_size, replace=False)
        query = " ".join(topics[i] for i in chosen)

        n_clicks = int(rng.choice(3, p=click_counts)) + 1
        clicked = [target]
        cluster_mates = [a for a in by_cluster[corpus.cluster_of[target]] if a != target]
        for _ in range(n_clicks - 1):
            pool = cluster_mates if rng.random() < config.same_cluster_bias else ids
            choices = [a for a in pool if a not in clicked]
            if not choices:
                choices = [a for a in ids if a not in clicked]
            if not choices:
                break
            clicked.append(choices[int(rng.choice(len(choices)))])

        for rank, article_id in enumerate(clicked, start=1):
            events.append(
                SessionEvent(session_id, query, rank, article_id, s * 10 + rank)
            )
    return events
