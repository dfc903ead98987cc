"""Machine-readable run reports.

Reports list one check per line with an exact rational value; the JSON
rendering is byte-deterministic for identical (scenario, seed, flags):
timings are only included when explicitly requested, since they are the
one nondeterministic quantity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# residue_points: the marked points where omega(sdot_1, sdot_2) alpha has a
# non-zero residue, i.e. where the residue theorem's cancellation is tested
STATS_COLUMNS = (
    "section_dim", "bundle_attempts", "tangent_retries", "rows", "cols", "rank", "nonzeros",
    "residue_points",
)


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail" | "info"
    value: str = ""
    detail: str = ""
    time_ms: float | None = None


@dataclass
class Report:
    command: str
    scenario: str
    seed: int | None = None
    checks: list = field(default_factory=list)
    show_timing: bool = False
    # per-trial {"trial": index, <STATS_COLUMNS>: count}; None prints no block
    stats: list | None = None

    def add(self, name, status, value="", detail="", time_ms=None) -> Check:
        check = Check(name, status, str(value), detail, time_ms)
        self.checks.append(check)
        return check

    @property
    def verdict(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    @property
    def exit_code(self) -> int:
        return 0 if self.verdict == "pass" else 1

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "info": 0}
        for c in self.checks:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    def stats_total(self) -> dict:
        return {name: sum(row[name] for row in self.stats) for name in STATS_COLUMNS}

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "scenario": self.scenario,
            "seed": self.seed,
            "verdict": self.verdict,
            "counts": self.counts(),
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "value": c.value,
                    "detail": c.detail,
                    **({"time_ms": c.time_ms} if self.show_timing else {}),
                }
                for c in self.checks
            ],
        }
        if self.stats is not None:
            payload["stats"] = {"trials": self.stats, "total": self.stats_total()}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"scenario {self.scenario} :: {self.command}"
                 + (f" (seed {self.seed})" if self.seed is not None else "")]
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            line = f"  {c.name.ljust(width)}  {c.status.upper():4}"
            if c.value:
                line += f"  value={c.value}"
            if c.detail:
                line += f"  [{c.detail}]"
            if self.show_timing and c.time_ms is not None:
                line += f"  ({c.time_ms:.1f} ms)"
            lines.append(line)
        counts = self.counts()
        lines.append(
            f"verdict: {self.verdict} "
            f"({counts['pass']} pass, {counts['fail']} fail, {counts['info']} info)"
        )
        if self.stats is not None:
            lines.extend(self._stats_lines())
        return "\n".join(lines) + "\n"

    def _stats_lines(self) -> list:
        header = ("trial",) + STATS_COLUMNS
        rows = [(f"{r['trial']:03d}", *(str(r[c]) for c in STATS_COLUMNS)) for r in self.stats]
        total = self.stats_total()
        rows.append(("total", *(str(total[c]) for c in STATS_COLUMNS)))
        out = [f"stats ({len(self.stats)} trials):", "  " + "  ".join(header)]
        for row in rows:
            out.append("  " + "  ".join(cell.rjust(len(h)) for cell, h in zip(row, header)))
        return out
