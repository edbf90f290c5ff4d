"""A plain step-by-step Q-learner, the reference for `learn.train`.

It reads the product's branches directly, draws every uniform with its own
`Generator.random()` call and simulates every step, also the steps an
episode spends in a zero-reward sink.  Its draw accounting is the contract
that `learn._run` documents: a state with one pair and a pair with one
branch spend no draw; otherwise one draw decides greedy vs explore (and a
second picks the explored pair), one picks the branch, and an accepting
branch spends one on the diversion coin.  It takes every maximum over the
whole row and picks a branch by a left-to-right scan of the partial sums,
so it also checks `learn._run`'s cached row maxima and its bisection.
"""

from buchirl import Mode
from buchirl.learn import ANNEAL_FRACTION, VISIT_DECAY


def epsilon(cfg, episode):
    span = max(1, int(cfg.episodes * ANNEAL_FRACTION))
    t = min(1.0, episode / span)
    return cfg.epsilon0 + (cfg.epsilon_final - cfg.epsilon0) * t


def pick_branch(branches, u):
    acc = 0.0
    for i, b in enumerate(branches[:-1]):
        acc += b.prob
        if u < acc:
            return i
    return len(branches) - 1


class ReferenceLearner:
    """Q-table, visit counts and draw count of one learning run."""

    def __init__(self, model, cfg, rng):
        reach = model.mode is Mode.REACH_TARGET
        init = 0.0
        if cfg.optimistic:
            init = 1.0 if reach else 1.0 / (1.0 - model.zeta)
        self.pairs = model.product.pairs
        self.initial = model.product.initial
        self.leak = 1.0 - model.zeta
        self.r_accept = 0.0 if reach else 1.0
        self.cfg = cfg
        self.rng = rng
        self.draws = 0
        self.q = [[init] * len(plist) for plist in self.pairs]
        self.visits = [[0] * len(plist) for plist in self.pairs]

    def draw(self):
        self.draws += 1
        return self.rng.random()

    def update(self, s, k, target):
        n = self.visits[s][k]
        alpha = self.cfg.alpha0 / (1.0 + n / VISIT_DECAY)
        self.q[s][k] += alpha * (target - self.q[s][k])
        self.visits[s][k] = n + 1

    def episode(self, eps):
        """Returns (total reward, reached target, trace), the trace being the
        states (initial first), pairs, symbols and accepting marks."""
        s = self.initial
        trace = ([s], [], [], [])
        total = 0.0
        for _ in range(self.cfg.max_steps):
            row = self.q[s]
            if len(row) == 1:
                k = 0
            elif self.draw() < eps:
                k = min(int(self.draw() * len(row)), len(row) - 1)
            else:
                k = row.index(max(row))
            branches = self.pairs[s][k].branches
            b = branches[0 if len(branches) == 1 else pick_branch(branches, self.draw())]
            for lst, v in zip(trace, (b.succ, k, b.symbol, b.accepting)):
                lst.append(v)
            r = 0.0
            if b.accepting:
                if self.draw() < self.leak:
                    total += 1.0
                    self.update(s, k, 1.0)
                    return total, True, trace
                r = self.r_accept
                total += r
            self.update(s, k, r + max(self.q[b.succ]))
            s = b.succ
        return total, False, trace

    def train(self):
        """Returns (curve, truncated) like `TrainResult`."""
        curve = []
        truncated = 0
        for ep in range(self.cfg.episodes):
            eps = epsilon(self.cfg, ep)
            total, reached, _ = self.episode(eps)
            curve.append((ep, total, eps))
            truncated += not reached
        return curve, truncated


def trap_states(p):
    """Product states whose only move is a non-accepting self-loop."""
    return [
        s
        for s, plist in enumerate(p.pairs)
        if len(plist) == 1
        and len(plist[0].branches) == 1
        and plist[0].branches[0].succ == s
        and not plist[0].branches[0].accepting
    ]
