"""Per-sentence reference for length-parallel reranking.

``lengths.length_parallel_decode_corpus`` scores a whole group of
candidates in one stacked pass per model.  This oracle scores one sentence
at a time, one unpadded student pass and one teacher pass per candidate
length, through the public entry points only, so the stacked pass can be
held to it.
"""

from narlab.lengths import candidate_lengths


def scored_candidates(student, teacher, src, policy, rank_mode="sum_logprob") -> list:
    """(length, tokens, score) for every candidate length both models can
    represent: the student emits L positions, the teacher scores BOS + L."""
    limit = min(student.config.max_len, teacher.config.max_len - 1)
    out = []
    for L in candidate_lengths(len(src), policy):
        if L <= limit:
            tokens = student.nar_greedy_emit_batch([src], L)[0]
            total, mean = teacher.sequence_logprob(src, tokens)
            out.append((L, tokens, total if rank_mode == "sum_logprob" else mean))
    return out


def rerank_pick(student, teacher, src, policy, rank_mode="sum_logprob") -> list:
    """The tokens of the best-scored candidate; ties go to the length
    nearest the predicted T + C, then to the shorter one."""
    center = len(src) + policy.C
    _, tokens, _ = max(scored_candidates(student, teacher, src, policy, rank_mode),
                       key=lambda c: (c[2], -abs(c[0] - center), -c[0]))
    return tokens
