"""Role-scoped authorization table with optional daily time windows.

The table maps each of the eight principal groups to the activity scopes it
may request, plus an optional [start, end) window in minutes of the
simulated day. It ships with a default grant matrix and parses a small
line-oriented text format so deployments can swap their own:

    # role  scopes (comma separated, * = everything)  [start-min end-min]
    D  read-patient-vitals,write-prescription
    L  read-lab-orders,write-lab-results  360 1200

A window given as start > end wraps past midnight.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

MINUTES_PER_DAY = 1440
MS_PER_MINUTE = 60_000


def ascii_int(token: str) -> int:
    """The integer ASCII digits with an optional leading '-' spell; ValueError
    for anything else ("+", "_", other digits) or a number too long for int."""
    digits = token.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token)


class Role(str, Enum):
    DOCTOR = "D"
    NURSE = "N"
    PATIENT = "P"
    MEDICATION = "M"
    HOSPITAL = "H"
    ADMIN = "SA"
    EMERGENCY = "E"
    LABORATORY = "L"


ALL_SCOPES = "*"

# what an authentication attempt asks for when nobody says otherwise
DEFAULT_SCOPE = "read-patient-vitals"

DEFAULT_TABLE_TEXT = """\
# role  scopes  [window start-minute end-minute]
D   read-patient-vitals,read-other-patient-vitals,read-lab-results,write-prescription,admit-patient
N   read-patient-vitals,read-other-patient-vitals,read-lab-results,record-vitals
P   read-own-records,read-own-vitals
M   read-prescriptions,dispense-medication,manage-inventory
H   read-admissions,manage-beds,manage-inventory
SA  *
E   read-patient-vitals,read-other-patient-vitals,emergency-override,admit-patient
L   read-lab-orders,write-lab-results
"""

# Every scope the default deployment knows about. "manage-users" is granted
# to nobody except the administrator's wildcard, which keeps at least one
# (role, scope) pair false for every non-admin row.
SCOPE_CATALOG = (
    "admit-patient",
    "dispense-medication",
    "emergency-override",
    "manage-beds",
    "manage-inventory",
    "manage-users",
    "read-admissions",
    "read-lab-orders",
    "read-lab-results",
    "read-other-patient-vitals",
    "read-own-records",
    "read-own-vitals",
    "read-patient-vitals",
    "read-prescriptions",
    "record-vitals",
    "write-lab-results",
    "write-prescription",
)


@dataclass(frozen=True)
class RoleGrant:
    scopes: frozenset[str] | None      # None means every scope
    window: tuple[int, int] | None     # [start, end) in minutes of day

    def covers(self, scope: str, at_ms: int) -> bool:
        if self.scopes is not None and scope not in self.scopes:
            return False
        if self.window is None:
            return True
        minute = (at_ms // MS_PER_MINUTE) % MINUTES_PER_DAY
        start, end = self.window
        if start <= end:
            return start <= minute < end
        return minute >= start or minute < end   # wraps past midnight


# Iterating the Role enum runs Python code on each call; these sets are
# compared in C.
_ROLES = frozenset(Role)
_ROLE_TYPE = {Role}


class PermissionTable:
    def __init__(self, grants: dict[Role, RoleGrant]):
        # A role's plain value equals its member, so the keys must also all
        # be Roles. The named lists are built only for the refusal.
        if grants.keys() != _ROLES or set(map(type, grants)) != _ROLE_TYPE:
            missing = [r.value for r in Role if r not in grants]
            if missing:
                raise ValueError(f"permission table missing roles: {missing}")
            # no role missing: a key that is no Role makes the difference
            extra = [r for r in grants if not isinstance(r, Role)]
            raise ValueError(f"permission table has unknown roles: {extra}")
        self.grants = grants

    def allows(self, role: Role, scope: str, at_ms: int) -> bool:
        return self.grants[role].covers(scope, at_ms)

    def __contains__(self, role) -> bool:
        return role in self.grants

    @classmethod
    def parse(cls, text: str) -> "PermissionTable":
        grants: dict[Role, RoleGrant] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 4):
                raise ValueError(f"line {lineno}: expected 'role scopes [start end]'")
            try:
                role = Role(parts[0])
            except ValueError:
                raise ValueError(f"line {lineno}: unknown role {parts[0]!r}") from None
            if role in grants:
                raise ValueError(f"line {lineno}: duplicate role {role.value}")
            scopes = None if parts[1] == ALL_SCOPES else frozenset(
                s for s in parts[1].split(",") if s)
            window = None
            if len(parts) == 4:
                minutes = []
                for token in parts[2:]:
                    try:
                        minutes.append(ascii_int(token))
                    except ValueError:
                        raise ValueError(f"line {lineno}: window minutes must be "
                                         f"integers, got {token!r}") from None
                start, end = minutes
                if not (0 <= start < MINUTES_PER_DAY and 0 <= end < MINUTES_PER_DAY):
                    raise ValueError(f"line {lineno}: window minutes out of range")
                window = (start, end)
            grants[role] = RoleGrant(scopes=scopes, window=window)
        return cls(grants)

    @classmethod
    def default(cls) -> "PermissionTable":
        """The built-in table, parsed once at import. Each call gets its own
        grants dict; the RoleGrants in it are frozen and shared."""
        return cls(dict(_DEFAULT_GRANTS))


_DEFAULT_GRANTS = PermissionTable.parse(DEFAULT_TABLE_TEXT).grants
