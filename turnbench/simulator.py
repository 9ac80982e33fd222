"""Seeded, goal-driven simulated users for the turn benchmark.

Each simulated user holds one goal (book tickets, cancel a reservation,
list a movie's screenings, or look up a booking and decline it) sampled
from the live database with the benchmark's seeded RNG, and a behaviour
profile drawn from :data:`repro.synthesis.user_model.DEFAULT_PROFILES`.
It talks to the agent only through utterances, and decides what to say
from the agent's public session state: the pending identification
question, the value slot being asked, the presented choice list, or the
confirm prompt.  What the user knows about its target follows the
schema's annotated awareness priors, drawn once per attribute and goal
(as :class:`repro.eval.SimulatedUser` does).

Utterances are rendered from the phrasings in this module, which are
kept apart from the synthesis templates so the agent's NLU sees text it
was not trained on.
"""

from __future__ import annotations

import datetime as _dt
import random
from dataclasses import dataclass
from typing import Any

from repro.dialogue import Phase
from repro.synthesis.user_model import DEFAULT_PROFILES, UserProfile

#: A goal that needs more user turns than this counts as not completed.
TURN_CAP = 30

_ORDINAL_WORDS = ("first", "second", "third")

REQUESTS = {
    "book": (
        "i would like {n} tickets",
        "can i get {n} tickets please",
        "i want to book {n} seats",
        "please reserve {n} tickets for me",
        "i need {n} cinema tickets",
    ),
    "cancel": (
        "i want to cancel my reservation",
        "please cancel my booking",
        "i need to cancel my reservation",
        "can you cancel my tickets",
    ),
    "list": (
        "which screenings do you have",
        "what is showing",
        "show me the screenings",
    ),
    "list_title": (
        "when is {title} showing",
        "which screenings are there for {title}",
        "list the screenings for {title}",
    ),
}

#: Clauses an opening request may volunteer, keyed by attribute.
VOLUNTEER = {
    "movie.title": (" for {v}", " to see {v}"),
    "customer.last_name": (", my last name is {v}", ", my name is {v}"),
    "customer.email": (", my email is {v}", ", my email address is {v}"),
}

#: Answers to "Can you tell me the <attribute>?", keyed by attribute.
ANSWERS = {
    "customer.first_name": ("my first name is {v}", "{v}", "i am {v}"),
    "customer.last_name": ("my last name is {v}", "{v}", "it is {v}"),
    "customer.city": ("i live in {v}", "{v}", "i am from {v}"),
    "customer.street": ("i live on {v}", "{v}", "my street is {v}"),
    "customer.email": ("my email is {v}", "{v}"),
    "customer.birth_year": ("i was born in {v}", "{v}", "born in {v}"),
    "movie.title": ("the movie is {v}", "{v}", "i want to see {v}"),
    "movie.genre": ("it is a {v} movie", "{v}", "the genre is {v}"),
    "movie.year": ("it came out in {v}", "{v}", "the movie is from {v}"),
    "movie.duration_minutes": ("it runs {v} minutes", "{v} minutes"),
    "actor.name": ("{v} plays in it", "{v}", "it stars {v}"),
    "language.name": ("it is in {v}", "{v}"),
    "country.name": ("it is from {v}", "{v}"),
    "screening.date": ("on {v}", "{v}", "the screening is on {v}"),
    "screening.start_time": ("at {v}", "{v}", "it starts at {v}"),
    "screening.room": ("in {v}", "{v}"),
    "screening.price": ("the ticket costs {v}", "{v}"),
    "reservation.no_tickets": ("{v}", "it was {v}", "{v} i think"),
}

# Kept clear of phrasings the agent reads as a different act: "2 please"
# parses as an affirm, which at the confirm prompt would commit.
TICKETS = ("{n} tickets", "make it {n} tickets")
CORRECT = ("make it {n} tickets", "i said {n} tickets")
CHOOSE = ("the {ordinal} one", "number {k}", "option {k}")
AFFIRM = ("yes please", "yes go ahead", "ok go ahead", "yes that is fine")
DENY = ("no", "no, that is wrong", "nope")
ABORT = ("never mind", "stop", "forget about it")
DONT_KNOW = ("i do not know", "i have no idea", "i cannot remember")
GREET = ("hi", "hi there", "good evening")
THANK = ("thanks", "thank you", "great, thanks")

#: Procedure each goal kind must end in; "decline" must commit nothing.
PROCEDURE = {
    "book": "ticket_reservation",
    "cancel": "cancel_reservation",
    "list": "list_screenings",
    "decline": None,
}
_TASK = {**PROCEDURE, "decline": "ticket_reservation"}


@dataclass
class Goal:
    """What one simulated user wants, and how it behaves."""

    index: int
    seed: int                        # seeds the user's own phrasing choices
    kind: str
    arguments: dict[str, Any]
    facts: dict[str, tuple]          # "table.column" -> target values
    greet: bool
    thank: bool
    deny_once: bool
    abort_at: int | None             # user turn index of the abort, if any
    volunteer: str | None            # attribute volunteered when opening

    @property
    def procedure(self) -> str | None:
        return PROCEDURE[self.kind]

    @property
    def task(self) -> str:
        return _TASK[self.kind]


class GoalSampler:
    """Samples goals from the live database with one seeded RNG.

    Targets claimed by goals still in flight (reservations to cancel,
    seats on a screening) are tracked, so concurrent users never race
    for the same reservation and no booking exceeds capacity.
    """

    def __init__(self, database, annotations, mix, seed: int) -> None:
        self._db = database
        self._annotations = annotations
        self._rng = random.Random(seed)
        # Goal kinds and user profiles are dealt from shuffled decks of
        # _DECK cards in exact proportion, so every stretch of _DECK
        # goals has the workload's mix and the per-goal averages do not
        # drift with the seed's luck in kinds.
        self._kinds = _Deck(mix, self._rng)
        self._profiles = _Deck(DEFAULT_PROFILES, self._rng)
        # Behaviour flags likewise, one deck per profile and flag.
        self._flags: dict[tuple[str, str], _Deck] = {}
        # What an opening request volunteers.  Email is rare: at large
        # scale linking one costs as much as dozens of ordinary turns.
        self._volunteers = _Deck(
            ((None, 0.45), ("movie.title", 0.25),
             ("customer.last_name", 0.25), ("customer.email", 0.05)),
            self._rng,
        )
        self._claimed_reservations: set[int] = set()
        self._claimed_seats: dict[int, int] = {}
        self.started = 0
        self._customers = database.table("customer").row_ids()
        self._screenings = database.table("screening").row_ids()
        self._movies = database.table("movie").row_ids()

    def sample(self) -> Goal:
        rng = self._rng
        kind = self._kinds.deal()
        profile = self._profiles.deal()
        if kind in ("book", "decline"):
            arguments, facts = self._booking(rng, claim=kind == "book")
        elif kind == "cancel":
            arguments, facts = self._cancellation(rng)
        else:
            movie = self._db.table("movie").get(rng.choice(self._movies))
            arguments = {"movie_id": movie["movie_id"]}
            facts = self._movie_facts(movie)
        self.started += 1
        volunteer = self._volunteers.deal() if kind in ("book", "decline") \
            else None
        return Goal(
            index=self.started - 1,
            seed=rng.randrange(1 << 30),
            kind=kind,
            arguments=arguments,
            facts=facts,
            greet=self._flag(profile, "greet_probability"),
            thank=self._flag(profile, "thank_probability"),
            deny_once=self._flag(profile, "deny_at_confirm_probability")
            and kind != "list",
            abort_at=rng.randint(1, 3)
            if self._flag(profile, "abort_probability") else None,
            volunteer=volunteer,
        )

    def _flag(self, profile: UserProfile, name: str) -> bool:
        deck = self._flags.get((profile.name, name))
        if deck is None:
            p = getattr(profile, name)
            deck = self._flags[profile.name, name] = _Deck(
                ((True, p), (False, 1.0 - p)), self._rng
            )
        return deck.deal()

    def release(self, goal: Goal) -> None:
        """Free the targets a finished goal claimed."""
        if goal.kind == "cancel":
            self._claimed_reservations.discard(goal.arguments["reservation_id"])
        elif goal.kind == "book":
            sid = goal.arguments["screening_id"]
            self._claimed_seats[sid] -= goal.arguments["ticket_amount"]

    # ------------------------------------------------------------------
    def _booking(self, rng: random.Random, claim: bool):
        customer = self._db.table("customer").get(rng.choice(self._customers))
        amount = rng.randint(1, 4)
        while True:
            screening = self._db.table("screening").get(
                rng.choice(self._screenings)
            )
            sid = screening["screening_id"]
            booked = sum(
                row["no_tickets"]
                for row in self._db.find("reservation", "screening_id", sid)
            )
            claimed = self._claimed_seats.get(sid, 0)
            if booked + claimed + amount <= screening["capacity"]:
                break
        if claim:
            self._claimed_seats[sid] = claimed + amount
        arguments = {
            "customer_id": customer["customer_id"],
            "screening_id": sid,
            "ticket_amount": amount,
        }
        facts = {**self._customer_facts(customer),
                 **self._screening_facts(screening)}
        return arguments, facts

    def _cancellation(self, rng: random.Random):
        table = self._db.table("reservation")
        open_ids = [
            rid for rid in table.row_ids()
            if table.get(rid)["reservation_id"]
            not in self._claimed_reservations
        ]
        row = table.get(rng.choice(open_ids))
        self._claimed_reservations.add(row["reservation_id"])
        customer = self._db.find_one("customer", "customer_id",
                                     row["customer_id"])
        screening = self._db.find_one("screening", "screening_id",
                                      row["screening_id"])
        facts = {
            "reservation.no_tickets": (row["no_tickets"],),
            **self._customer_facts(customer),
            **self._screening_facts(screening),
        }
        return {"reservation_id": row["reservation_id"]}, facts

    def _customer_facts(self, row) -> dict[str, tuple]:
        return {
            f"customer.{column}": (row[column],)
            for column in ("first_name", "last_name", "city", "street",
                           "email", "birth_year")
        }

    def _screening_facts(self, row) -> dict[str, tuple]:
        facts = {
            f"screening.{column}": (row[column],)
            for column in ("date", "start_time", "room", "price")
        }
        movie = self._db.find_one("movie", "movie_id", row["movie_id"])
        facts.update(self._movie_facts(movie))
        return facts

    def _movie_facts(self, row) -> dict[str, tuple]:
        facts = {
            f"movie.{column}": (row[column],)
            for column in ("title", "genre", "year", "duration_minutes")
        }
        cast = self._db.find("movie_actor", "movie_id", row["movie_id"])
        facts["actor.name"] = tuple(sorted(
            self._db.find_one("actor", "actor_id", link["actor_id"])["name"]
            for link in cast
        ))
        for dimension in ("language", "country"):
            key = row.get(f"{dimension}_id")
            if key is not None:
                dim_row = self._db.find_one(dimension, f"{dimension}_id", key)
                facts[f"{dimension}.name"] = (dim_row["name"],)
        return facts


_DECK = 20


class _Deck:
    """Deals items in proportion to their weights, _DECK at a time."""

    def __init__(self, weighted, rng: random.Random) -> None:
        self._cards = []
        for item, weight in weighted:
            self._cards += [item] * round(weight * _DECK)
        self._rng = rng
        self._hand: list = []

    def deal(self):
        if not self._hand:
            self._hand = list(self._cards)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


class SimulatedUser:
    """Plays one goal: picks each utterance from the agent's state."""

    def __init__(self, goal: Goal, annotations) -> None:
        self.goal = goal
        self._annotations = annotations
        self._rng = random.Random(goal.seed)
        self._known: dict[str, bool] = {}
        self._turn = 0
        self._greeted = not goal.greet
        self._aborted = False
        self._denied = False
        self._declined = False
        self._closing = False
        self._presented: list = []
        self._attempts: dict[str, int] = {}
        self._cautious = False
        self._volunteer = goal.volunteer
        self.finished = False
        self.completed = False
        #: The kind of the last utterance ("affirm", "answer", ...).
        self.last_act = ""

    # ------------------------------------------------------------------
    def next_utterance(self, state) -> str | None:
        """The user's next line, or ``None`` once the goal is over."""
        if self.finished:
            return None
        if self._turn >= TURN_CAP:
            self.finished = True
            return None
        self._turn += 1
        text, self.last_act = self._choose(state)
        return text

    def observe(self, state, executed) -> None:
        """Digest the agent's reply to the last utterance."""
        goal = self.goal
        if state.phase is Phase.CHOOSING:
            # Remember the list as shown: another session may delete one
            # of its rows before this user answers.
            session = state.identification
            self._presented = [
                row[session.key_column] for row in session.choice_list()
            ]
        if executed is not None and executed.procedure == goal.procedure:
            self.completed = dict(executed.arguments) == goal.arguments
            self._close()
        elif (goal.kind == "decline" and self._declined
              and self.last_act == "abort" and state.task is None):
            self.completed = True
            self._close()
        elif self._closing and self.last_act == "thank":
            self.finished = True

    def _close(self) -> None:
        self._closing = True
        self.finished = not self.goal.thank

    @property
    def turns(self) -> int:
        return self._turn

    # ------------------------------------------------------------------
    def _choose(self, state) -> tuple[str, str]:
        goal = self.goal
        pick = self._rng.choice
        if self._closing:
            return pick(THANK), "thank"
        if not self._greeted:
            self._greeted = True
            return pick(GREET), "greet"
        if (goal.abort_at is not None and not self._aborted
                and self._turn > goal.abort_at + int(goal.greet)
                and state.task is not None):
            # Abort once mid-task; the retry follows on the next turn.
            self._aborted = True
            return pick(ABORT), "abort"
        if state.task is None or state.task.name != goal.task:
            if state.task is not None:
                return pick(ABORT), "abort"
            return self._request(), "request"
        if self._declined:
            return pick(ABORT), "abort"
        if state.phase is Phase.CONFIRMING:
            return self._confirm(state)
        if state.phase is Phase.CHOOSING:
            return self._choose_row(state)
        session = state.identification
        if session is not None and session.pending_question is not None:
            return self._answer(str(session.pending_question))
        if state.current_slot == "ticket_amount":
            n = goal.arguments["ticket_amount"]
            return pick(TICKETS).format(n=n), "answer"
        return self._request(), "request"

    def _request(self) -> str:
        goal = self.goal
        pick = self._rng.choice
        if goal.kind == "list":
            if self._knows("movie.title"):
                title = self._say("movie.title", goal.facts["movie.title"][0])
                return pick(REQUESTS["list_title"]).format(title=title)
            return pick(REQUESTS["list"])
        if goal.kind == "cancel":
            return pick(REQUESTS["cancel"])
        text = pick(REQUESTS["book"]).format(n=goal.arguments["ticket_amount"])
        attribute = self._volunteer
        self._volunteer = None   # a rephrased request drops the extra clause
        if attribute is not None and self._knows(attribute):
            value = self._say(attribute, goal.facts[attribute][0])
            text += pick(VOLUNTEER[attribute]).format(v=value)
        return text

    def _confirm(self, state) -> tuple[str, str]:
        goal = self.goal
        pick = self._rng.choice
        if goal.kind == "decline":
            self._declined = True
            self._attempts.clear()
            return pick(DENY), "deny"
        collected = {
            name: state.collected.get(name) for name in goal.arguments
        }
        wrong = {name for name in collected
                 if collected[name] != goal.arguments[name]}
        if wrong == {"ticket_amount"}:
            # Only the count is off (a number answer was taken for it).
            n = goal.arguments["ticket_amount"]
            return pick(CORRECT).format(n=n), "correct"
        if wrong or (goal.deny_once and not self._denied):
            # Wrong summary, or a hesitant user: the agent starts over.
            # After a wrong one the user keeps numbers out of answers.
            self._cautious = self._cautious or bool(wrong)
            self._denied = True
            self._attempts.clear()
            return pick(DENY), "deny"
        return pick(AFFIRM), "affirm"

    def _choose_row(self, state) -> tuple[str, str]:
        wanted = self.goal.arguments.get(state.identification.key_column)
        for k, key in enumerate(self._presented, start=1):
            if key == wanted:
                if k <= len(_ORDINAL_WORDS):
                    template = self._rng.choice(CHOOSE)
                else:
                    template = self._rng.choice(CHOOSE[1:])
                ordinal = _ORDINAL_WORDS[min(k, len(_ORDINAL_WORDS)) - 1]
                return template.format(ordinal=ordinal, k=k), "choose"
        return self._rng.choice(ABORT), "abort"

    def _answer(self, attribute: str) -> tuple[str, str]:
        values = self.goal.facts.get(attribute)
        # Asked again right after answering: the agent did not get it.
        # Rephrase once, then give up on this attribute.
        self._attempts[attribute] = tries = self._attempts.get(attribute, 0) + 1
        numeric = isinstance(values[0], (int, float)) if values else False
        if (not values or not self._knows(attribute) or tries > 2
                or attribute not in ANSWERS or (numeric and self._cautious)):
            return self._rng.choice(DONT_KNOW), "dont_know"
        value = self._say(attribute, self._rng.choice(values))
        return self._rng.choice(ANSWERS[attribute]).format(v=value), "answer"

    def _knows(self, attribute: str) -> bool:
        known = self._known.get(attribute)
        if known is None:
            table, column = attribute.split(".")
            prior = self._annotations.awareness_prior(table, column)
            known = self._known[attribute] = self._rng.random() < prior
        return known

    def _say(self, attribute: str, value: Any) -> str:
        """Render a value the way a user would type it."""
        if isinstance(value, _dt.date):
            if self._rng.random() < 0.75:
                return value.isoformat()
            return f"{value.strftime('%B').lower()} {value.day} {value.year}"
        if isinstance(value, _dt.time):
            return value.strftime("%H:%M")
        text = f"{value:g}" if isinstance(value, float) else str(value)
        if attribute != "customer.email" and self._rng.random() < 0.4:
            text = text.lower()
        return text
