//! The application × container matrix of Table 1.
//!
//! Each cell of Table 1 names the streaming strategy the paper measured for
//! one combination of client application and container. This module supplies
//! (a) the ground truth the paper reports ([`table1_expected`]) and (b) a
//! factory that assembles the corresponding simulated session
//! ([`logic_for`]), so the Table 1 reproduction can run every cell and
//! compare the classifier's verdict against the paper's.

use vstream_analysis::Strategy;
use vstream_app::engine::SessionLogic;
use vstream_app::strategies::{
    AbrLogic, BulkLogic, ClientPullConfig, ClientPullLogic, NetflixConfig, NetflixLogic,
    RangeRequestLogic, ServerPacedConfig, ServerPacedLogic,
};
use vstream_app::Video;
use vstream_net::NetworkProfile;

/// The streaming service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Service {
    /// YouTube (Flash, Flash HD, or HTML5 container).
    YouTube,
    /// Netflix (Silverlight on PCs, native applications on mobile).
    Netflix,
}

/// The client application (rows of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Client {
    /// Internet Explorer 9.
    InternetExplorer,
    /// Mozilla Firefox 4.0.
    Firefox,
    /// Google Chrome 10.0.
    Chrome,
    /// The native iOS (iPad) application.
    Ipad,
    /// The native Android application.
    Android,
    /// A DASH-style adaptive-bitrate reference player (HTML5 only). Not a
    /// Table 1 row — the paper's 2011 clients pick one rate per session —
    /// but the rate-adaptation behaviour the QoE extension experiments
    /// (`repro ext-qoe`) measure under long-range-dependent cross traffic.
    Dash,
}

impl Client {
    /// All rows of Table 1. [`Client::Dash`] is deliberately excluded: it
    /// is an extension client, and adding it here would change every
    /// Table 1-derived figure.
    pub const ALL: [Client; 5] = [
        Client::InternetExplorer,
        Client::Firefox,
        Client::Chrome,
        Client::Ipad,
        Client::Android,
    ];

    /// The row label in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            Client::InternetExplorer => "Internet Explorer",
            Client::Firefox => "Mozilla Firefox",
            Client::Chrome => "Google Chrome",
            Client::Ipad => "iOS (native)",
            Client::Android => "Android (native)",
            Client::Dash => "DASH (reference)",
        }
    }

    /// True for the native mobile applications.
    pub(crate) fn is_mobile(self) -> bool {
        matches!(self, Client::Ipad | Client::Android)
    }
}

/// The video container (columns of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Container {
    /// Adobe Flash at the default resolution.
    Flash,
    /// Flash HD (720p).
    FlashHd,
    /// HTML5 (webM).
    Html5,
    /// Microsoft Silverlight (Netflix).
    Silverlight,
}

impl Container {
    /// All columns of Table 1.
    pub const ALL: [Container; 4] = [
        Container::Flash,
        Container::FlashHd,
        Container::Html5,
        Container::Silverlight,
    ];

    /// The column label in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            Container::Flash => "Flash",
            Container::FlashHd => "Flash HD",
            Container::Html5 => "HTML5",
            Container::Silverlight => "Silverlight",
        }
    }

    /// The service this container belongs to.
    pub fn service(self) -> Service {
        match self {
            Container::Silverlight => Service::Netflix,
            _ => Service::YouTube,
        }
    }
}

/// Builds the session logic for a Table 1 cell, or `None` where the cell is
/// not applicable (mobile applications do not play Flash). Every logic it
/// builds has a player: its [`SessionLogic::viewer`] is `Some`.
pub fn logic_for(client: Client, container: Container, video: Video) -> Option<Box<dyn SessionLogic>> {
    // The DASH extension client exists only over HTML5 segments; giving it
    // any Table 1 plugin container would silently alias a paper cell.
    if client == Client::Dash && container != Container::Html5 {
        return None;
    }
    Some(match container {
        Container::Flash => {
            if client.is_mobile() {
                return None;
            }
            Box::new(ServerPacedLogic::new(ServerPacedConfig::default(), video))
        }
        Container::FlashHd => {
            if client.is_mobile() {
                return None;
            }
            Box::new(BulkLogic::new(video))
        }
        Container::Html5 => match client {
            Client::InternetExplorer => {
                Box::new(ClientPullLogic::new(ClientPullConfig::internet_explorer(), video))
            }
            Client::Firefox => Box::new(BulkLogic::new(video)),
            Client::Chrome => Box::new(ClientPullLogic::new(ClientPullConfig::chrome(), video)),
            Client::Ipad => Box::new(RangeRequestLogic::new(video)),
            Client::Android => Box::new(ClientPullLogic::new(ClientPullConfig::android(), video)),
            Client::Dash => Box::new(AbrLogic::new(video)),
        },
        Container::Silverlight => {
            let cfg = match client {
                Client::Ipad => NetflixConfig::ipad(),
                Client::Android => NetflixConfig::android(),
                _ => NetflixConfig::pc(),
            };
            Box::new(NetflixLogic::new(cfg, video.duration))
        }
    })
}

/// The strategy Table 1 of the paper reports for a cell (`None` = not
/// applicable).
pub fn table1_expected(client: Client, container: Container) -> Option<Strategy> {
    match (client, container) {
        // The DASH extension client is not a Table 1 row: the paper has no
        // ground truth for it.
        (Client::Dash, _) => None,
        (c, Container::Flash) if !c.is_mobile() => Some(Strategy::ShortCycles),
        (c, Container::FlashHd) if !c.is_mobile() => Some(Strategy::NoOnOff),
        (_, Container::Flash | Container::FlashHd) => None,
        (Client::InternetExplorer, Container::Html5) => Some(Strategy::ShortCycles),
        (Client::Firefox, Container::Html5) => Some(Strategy::NoOnOff),
        (Client::Chrome, Container::Html5) => Some(Strategy::LongCycles),
        (Client::Ipad, Container::Html5) => Some(Strategy::Mixed),
        (Client::Android, Container::Html5) => Some(Strategy::LongCycles),
        (Client::Android, Container::Silverlight) => Some(Strategy::LongCycles),
        (_, Container::Silverlight) => Some(Strategy::ShortCycles),
    }
}

/// The vantage points a service was measured from (§4.2: Netflix did not
/// stream to France).
pub fn valid_profiles(service: Service) -> &'static [NetworkProfile] {
    match service {
        Service::YouTube => &NetworkProfile::ALL,
        Service::Netflix => &[NetworkProfile::Academic, NetworkProfile::Home],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstream_sim::SimDuration;

    fn video() -> Video {
        Video::new(1, 1_000_000, SimDuration::from_secs(600))
    }

    #[test]
    fn mobile_clients_have_no_flash() {
        assert!(logic_for(Client::Ipad, Container::Flash, video()).is_none());
        assert!(logic_for(Client::Android, Container::FlashHd, video()).is_none());
        assert!(table1_expected(Client::Ipad, Container::Flash).is_none());
    }

    #[test]
    fn every_applicable_cell_builds() {
        let mut cells = 0;
        for client in Client::ALL {
            for container in Container::ALL {
                let logic = logic_for(client, container, video());
                let expected = table1_expected(client, container);
                assert_eq!(
                    logic.is_some(),
                    expected.is_some(),
                    "{} / {} applicability mismatch",
                    client.label(),
                    container.label()
                );
                if logic.is_some() {
                    cells += 1;
                }
            }
        }
        // 5 clients x 4 containers - 4 mobile Flash cells.
        assert_eq!(cells, 16);
    }

    #[test]
    fn flash_is_browser_independent() {
        // §5.3: for Flash, the strategy does not depend on the application.
        for client in [Client::InternetExplorer, Client::Firefox, Client::Chrome] {
            assert_eq!(
                table1_expected(client, Container::Flash),
                Some(Strategy::ShortCycles)
            );
            assert_eq!(
                table1_expected(client, Container::FlashHd),
                Some(Strategy::NoOnOff)
            );
        }
    }

    #[test]
    fn html5_depends_on_application() {
        use Strategy::*;
        assert_eq!(table1_expected(Client::InternetExplorer, Container::Html5), Some(ShortCycles));
        assert_eq!(table1_expected(Client::Firefox, Container::Html5), Some(NoOnOff));
        assert_eq!(table1_expected(Client::Chrome, Container::Html5), Some(LongCycles));
        assert_eq!(table1_expected(Client::Ipad, Container::Html5), Some(Mixed));
        assert_eq!(table1_expected(Client::Android, Container::Html5), Some(LongCycles));
    }

    #[test]
    fn netflix_browsers_agree_android_differs() {
        use Strategy::*;
        for client in [Client::InternetExplorer, Client::Firefox, Client::Chrome, Client::Ipad] {
            assert_eq!(table1_expected(client, Container::Silverlight), Some(ShortCycles));
        }
        assert_eq!(table1_expected(Client::Android, Container::Silverlight), Some(LongCycles));
    }

    #[test]
    fn netflix_profiles_exclude_france() {
        let profiles = valid_profiles(Service::Netflix);
        assert!(!profiles.contains(&NetworkProfile::Research));
        assert!(!profiles.contains(&NetworkProfile::Residence));
        assert_eq!(valid_profiles(Service::YouTube).len(), 4);
    }

    #[test]
    fn strategy_logic_exposes_uniform_accessors() {
        let logic = logic_for(Client::Firefox, Container::Html5, video()).unwrap();
        let viewer = logic.viewer().expect("every matrix logic has a player");
        assert_eq!(viewer.read_total(), 0);
        assert!(!viewer.player().has_started());
        assert_eq!(viewer.switches(), 0);
    }

    #[test]
    fn dash_client_is_html5_only_and_outside_table1() {
        assert!(logic_for(Client::Dash, Container::Html5, video()).is_some());
        for container in [Container::Flash, Container::FlashHd, Container::Silverlight] {
            assert!(logic_for(Client::Dash, container, video()).is_none());
            assert!(table1_expected(Client::Dash, container).is_none());
        }
        assert!(table1_expected(Client::Dash, Container::Html5).is_none());
        // And Table 1 iteration never sees it.
        assert!(!Client::ALL.contains(&Client::Dash));
    }

    #[test]
    fn container_service_mapping() {
        assert_eq!(Container::Silverlight.service(), Service::Netflix);
        assert_eq!(Container::Flash.service(), Service::YouTube);
        assert_eq!(Container::Html5.service(), Service::YouTube);
    }
}
