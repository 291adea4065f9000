"""Tests for the pub/sub topic grammar."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.cdf import ActuationResult, Measurement
from repro.errors import ConfigurationError, SerializationError, UnitError
from repro.middleware import topics


class TestValidation:
    @pytest.mark.parametrize("topic", ["a", "a/b", "district/d1/device/x"])
    def test_valid_topics(self, topic):
        assert topics.validate_topic(topic)

    @pytest.mark.parametrize("bad", ["", "/a", "a/", "a//b"])
    def test_malformed_topics(self, bad):
        with pytest.raises(ConfigurationError):
            topics.validate_topic(bad)

    @pytest.mark.parametrize("bad", ["a/+/b".replace("+", "#") + "/c"])
    def test_hash_must_be_last(self, bad):
        with pytest.raises(ConfigurationError):
            topics.validate_filter("a/#/b")

    def test_wildcards_rejected_in_concrete_topics(self):
        with pytest.raises(ConfigurationError):
            topics.validate_topic("a/+/b")
        with pytest.raises(ConfigurationError):
            topics.validate_topic("a/#")

    def test_join_rejects_bad_levels(self):
        with pytest.raises(ConfigurationError):
            topics.join("a", "", "b")
        with pytest.raises(ConfigurationError):
            topics.join("a", "b/c")


class TestMatching:
    @pytest.mark.parametrize(
        "pattern,topic,expected",
        [
            ("a/b/c", "a/b/c", True),
            ("a/b/c", "a/b/d", False),
            ("a/+/c", "a/b/c", True),
            ("a/+/c", "a/b/d", False),
            ("a/+/+", "a/b/c", True),
            ("a/#", "a/b/c/d", True),
            # MQTT semantics: 'a/#' also matches the parent level 'a'
            ("a/#", "a", True),
            ("#", "anything/at/all", True),
            ("a/b", "a/b/c", False),
            ("a/b/c", "a/b", False),
            ("+", "a", True),
            ("+", "a/b", False),
        ],
    )
    def test_matching_table(self, pattern, topic, expected):
        assert topics.topic_matches(pattern, topic) is expected

    @given(st.lists(st.from_regex(r"[a-z]{1,5}", fullmatch=True),
                    min_size=1, max_size=6))
    def test_topic_matches_itself(self, levels):
        topic = "/".join(levels)
        assert topics.topic_matches(topic, topic)

    @given(st.lists(st.from_regex(r"[a-z]{1,5}", fullmatch=True),
                    min_size=1, max_size=6))
    def test_multi_wildcard_matches_everything_at_depth(self, levels):
        topic = "/".join(levels)
        assert topics.topic_matches("#", topic)

    @given(st.lists(st.from_regex(r"[a-z]{1,5}", fullmatch=True),
                    min_size=2, max_size=6),
           st.data())
    def test_single_wildcard_substitution(self, levels, data):
        index = data.draw(st.integers(0, len(levels) - 1))
        pattern_levels = list(levels)
        pattern_levels[index] = "+"
        assert topics.topic_matches("/".join(pattern_levels),
                                    "/".join(levels))


class TestCanonicalTopics:
    def test_measurement_topic_layout(self):
        topic = topics.measurement_topic("dst-0001", "bld-0002",
                                         "dev-0003", "power")
        assert topic == (
            "district/dst-0001/entity/bld-0002/device/dev-0003/power"
        )

    def test_measurement_filter_matches_topic(self):
        topic = topics.measurement_topic("dst-1", "bld-2", "dev-3", "power")
        assert topics.topic_matches(
            topics.measurement_filter(district_id="dst-1"), topic
        )
        assert topics.topic_matches(
            topics.measurement_filter(quantity="power"), topic
        )
        assert not topics.topic_matches(
            topics.measurement_filter(quantity="energy"), topic
        )

    def test_district_filter_matches_all_district_events(self):
        pattern = topics.district_filter("dst-1")
        topic = topics.measurement_topic("dst-1", "bld-2", "dev-3", "energy")
        assert topics.topic_matches(pattern, topic)
        other = topics.measurement_topic("dst-2", "bld-2", "dev-3", "energy")
        assert not topics.topic_matches(pattern, other)


class TestDecodeEvent:
    """``decode_event`` is the inverse of publishing ``to_event()`` on
    ``measurement_topic`` / ``actuation_topic`` at ``published_at``."""

    SAMPLE = Measurement("dev-3", "bld-2", "power", 40.0, 60.03,
                         "proxy-a", {"protocol": "coap", "seq": 7})
    RESULT = ActuationResult("dev-3", "setpoint", True,
                             "confirmed by setpoint report", 61.2)

    def test_round_trips(self):
        topic = topics.measurement_topic("dst-1", "bld-2", "dev-3", "power")
        assert topics.decode_event(topic, self.SAMPLE.to_event(), 60.04) \
            == self.SAMPLE
        # a result completes when it is published: the envelope's
        # published_at is its completed_at, which the body leaves out
        event = self.RESULT.to_event()
        assert sorted(event) == ["accepted", "command", "detail"]
        assert topics.decode_event(topics.actuation_topic("dev-3"), event,
                                   61.2) == self.RESULT
        # a body that still spells completed_at is read as it says
        assert topics.decode_event(
            "actuation/dev-3", dict(event, completed_at=61.2), 99.0) == \
            self.RESULT

    @pytest.mark.parametrize("topic", [
        "district/dst-1/batch/proxy-a", "registry/dst-1",
        "district/dst-1/entity/bld-2/device/dev-3",
        "district/dst-1/entity/bld-2/sensor/dev-3/power", "actuation"])
    def test_a_topic_that_names_no_device_is_refused(self, topic):
        with pytest.raises(SerializationError):
            topics.decode_event(topic, self.SAMPLE.to_event(), 0.0)

    def test_a_short_or_unknown_body_is_refused(self):
        topic = topics.measurement_topic("dst-1", "bld-2", "dev-3", "power")
        with pytest.raises(SerializationError):
            topics.decode_event(topic, {"timestamp": 1.0}, 1.0)
        with pytest.raises(UnitError):
            topics.decode_event(topic.replace("power", "flux"),
                                self.SAMPLE.to_event(), 0.0)

    def test_records_of_one_device_share_its_names(self):
        # a caller keeping thousands of results keeps one copy of each id
        topic = "actuation/dev-{}"      # each event's topic built afresh
        first, second = (topics.decode_event(topic.format(3),
                                             self.RESULT.to_event(), 61.2)
                         for _ in range(2))
        assert first.device_id == "dev-3"
        assert first.device_id is second.device_id
